"""Record the outputs that run.py checks against, from the program as it is.

    python3 perfbench/record.py [--workload NAME ...]

Run from the root of a vulnseq checkout. For each workload (all of them
unless ``--workload`` names some) and each seed below run.RECORDED_SEEDS
it sets up once, makes one timed call, runs the seed-independent checks
and stores what the seed-specific checks compare with in
perfbench/expected.json. Record only from a commit whose outputs are
known good. A later change that alters outputs on purpose re-records and
says so.
"""

import argparse
import json
import sys
import tempfile

import run


def record_one(name, seed):
    workload = run.WORKLOADS[name]()
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        st = workload.setup(seed, tmp)
        problems = workload.run_checks(st, None)
        result, _ = workload.run(st, lambda tag: None)
        problems += workload.check(st, result, None, tmp)
        if problems:
            raise RuntimeError(f"{name} seed {seed}: " + "; ".join(problems[:3]))
        return workload.observe(st, result)


def dump(data):
    """One line per (workload, seed), so diffs stay readable."""
    lines = ["{"]
    for i, (name, seeds) in enumerate(sorted(data.items())):
        lines.append(f" {json.dumps(name)}: {{")
        items = sorted(seeds.items(), key=lambda kv: int(kv[0]))
        for j, (seed, obs) in enumerate(items):
            comma = "," if j < len(items) - 1 else ""
            lines.append(f"  {json.dumps(seed)}: {json.dumps(obs, sort_keys=True)}{comma}")
        lines.append(" }" + ("," if i < len(data) - 1 else ""))
    lines.append("}")
    return "\n".join(lines) + "\n"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    args = p.parse_args(argv)
    names = args.workload or sorted(run.WORKLOADS)
    run._import_program()
    try:
        with open(run.EXPECTED, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        data = {}
    for name in names:
        data[name] = {str(seed): record_one(name, seed) for seed in range(run.RECORDED_SEEDS)}
    with open(run.EXPECTED, "w", encoding="utf-8") as fh:
        fh.write(dump(data))
    print(f"recorded seeds 0-{run.RECORDED_SEEDS - 1} of {', '.join(names)} in {run.EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
