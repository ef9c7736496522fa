"""Self-test of the benchmark: the host-speed sampler reads the kernel during
a call, the generators are deterministic in the seed, and the output checks
accept true outputs and reject perturbed ones.

    PYTHONPATH=src python3 bench/selftest.py

Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from torsio import lambda0, solve_torsion

import checks
import hostspeed
import workloads
from checks import Records


def _inputs(seed: int):
    clock = workloads.BuildClock()
    solve = [(what, inst.label, inst.records) for what, inst in workloads.solve_inputs(seed, clock)]
    cli = [(doc.label, doc.text) for doc in workloads.cli_inputs(seed)]
    return solve, cli


def _perturbed(values: dict, skip: set, factor: float) -> dict:
    out = dict(values)
    victim = next(v for v in out if v not in skip)
    out[victim] *= factor
    return out


def cases():
    """(name, passed) pairs."""
    sampler = hostspeed.Sampler()
    with sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
    yield ("the sampler reads the kernel during a long call",
           len(sampler.readings) >= 3 and 0.0 < sampler.spent < 0.3)

    first, again, other = _inputs(7), _inputs(7), _inputs(8)
    yield "same seed gives identical inputs", first == again
    yield "another seed gives other random graphs", first[0] != other[0] and first[1] != other[1]

    clock = workloads.BuildClock()
    rng = np.random.default_rng(11)
    instances = [workloads._spec(clock, f"random40_p{p:g}", "random",
                                 workloads.random_records(rng, 40, 4.0, 2), p)
                 for p in (2.0, 3.0)]
    instances.append(workloads._spec(clock, "path12_p1.5", "path",
                                     workloads.path_records(12, "degree"), 1.5))
    for inst in instances:
        spec, rec = inst.spec, Records(*inst.records, inst.spec.p)
        sol = solve_torsion(spec)
        tau_ok = checks.check_torsion(spec, rec, inst.kind, sol.tau, sol.rigidity)
        yield f"{inst.label}: true tau passes", tau_ok.ok
        bad_tau = _perturbed(sol.tau, rec.dirichlet, 1.0 + 1e-5)
        yield (f"{inst.label}: perturbed tau fails",
               not checks.check_torsion(spec, rec, inst.kind, bad_tau, sol.rigidity).ok)
        yield (f"{inst.label}: perturbed T_p fails",
               not checks.check_torsion(spec, rec, inst.kind, sol.tau, sol.rigidity * (1 + 1e-6)).ok)

        spectral = lambda0(spec)
        lam, phi = spectral.lambda0, spectral.ground_state
        yield f"{inst.label}: true lambda0 passes", checks.check_lambda0(spec, rec, lam, phi).ok
        yield (f"{inst.label}: perturbed lambda0 fails",
               not checks.check_lambda0(spec, rec, lam * (1 + 1e-6), phi).ok)
        bad_phi = _perturbed(phi, rec.dirichlet, 1.0 + 1e-3)
        yield (f"{inst.label}: perturbed ground state fails",
               not checks.check_lambda0(spec, rec, lam, bad_phi).ok)


def main() -> int:
    failed = 0
    for name, passed in cases():
        print(f"{'ok  ' if passed else 'FAIL'} {name}")
        failed += not passed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
