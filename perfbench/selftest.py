"""Self-test of the benchmark at reduced input sizes.

Run from the repository root::

    python3 perfbench/selftest.py [--seed N]

For every workload it shows that

* the fast configuration the benchmark times (block-stepped CPU with
  superblocks, two campaign workers, the numpy sweep backend) reproduces the
  reference configuration (per-tick CPU, superblocks off, one process, the
  python sweep backend) bit for bit: platform fingerprints, ADC traces, fault
  verdicts and sweep waveforms;
* the checker is not vacuous: one corrupted outcome is counted as exactly one
  failed run and named;
* a traced round installs and removes every probe cleanly, and the probes
  the driver requires to be non-zero read non-zero.

It also checks that ``BENCHMARK.json`` declares exactly the metrics the
driver prints.  Exit code 0 means every check passed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run


def check_manifest() -> list[str]:
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for section, declared in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {entry["name"]: entry["unit"] for entry in manifest[section]}
        if listed != declared:
            problems.append(f"BENCHMARK.json {section} differs from the metrics run.py prints")
    if [entry["name"] for entry in manifest["workloads"]] != list(run.REQUIRED_NONZERO):
        problems.append("BENCHMARK.json workloads differ from run.py's workloads")
    from repro.fault.report import VERDICTS
    from repro.vp.platform import ANALOG_STYLES

    if run.VERDICTS != VERDICTS or set(run.STYLES) != set(ANALOG_STYLES):
        problems.append("run.py's verdicts or styles differ from the program's")
    for names in run.REQUIRED_NONZERO.values():
        problems.extend(f"required probe {name} is not a per-layer metric"
                        for name in names if name not in run.PER_LAYER)
    return problems


def check_workload(workload_class, seed: int) -> list[str]:
    from probes import _targets

    from workloads import describe

    tmp_dir = run.TMP / f"selftest-{workload_class.name}"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    problems = []
    try:
        workload = workload_class(seed, tmp_dir, reduced=True)
        state = workload.setup()
        checker = run.Checker(workload.reference(state))

        # Fast configuration against the reference, untraced then traced.
        originals = [(owner, name, vars(owner)[name]) for owner, name, _ in _targets()]
        untraced, traced = run.measure(workload, state, checker, 0.0, trace=True)
        if checker.failed:
            problems.append(f"fast != reference: {checker.first_failure}")
        moved = [name for owner, name, original in originals if vars(owner)[name] is not original]
        if moved:
            problems.append(f"probes left installed on {moved}")
        metrics = run.per_layer_metrics(untraced, traced)
        problems.extend(
            f"probe {name} reads 0" for name in run.REQUIRED_NONZERO[workload.name]
            if not metrics[name]
        )

        # The checker must catch a single corrupted run and name it.
        outcomes = dict(untraced[0].outcomes)
        victim = next(iter(outcomes))
        outcomes[victim] = ("corrupted",)
        mutant = run.Checker(checker.expected)
        mutant.check(outcomes)
        if mutant.failed != 1 or describe(victim) not in (mutant.first_failure or ""):
            problems.append(f"a corrupted run was not caught and named ({mutant.failed} failures)")
        print(
            f"{workload.name}: {len(checker.expected)} runs x {len(untraced) + len(traced)} "
            f"rounds match the reference",
            file=sys.stderr,
        )
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    return [f"{workload_class.name}: {problem}" for problem in problems]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)
    run.import_program()
    from workloads import WORKLOADS

    problems = check_manifest()
    for workload_class in WORKLOADS.values():
        problems.extend(check_workload(workload_class, args.seed))
    if run.TMP.is_dir() and not any(run.TMP.iterdir()):
        run.TMP.rmdir()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest passed" if not problems else f"selftest failed: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
