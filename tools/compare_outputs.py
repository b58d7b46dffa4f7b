"""Byte comparison of kdsim's CLI outputs between a git revision and the working tree.

    python3 tools/compare_outputs.py --base HEAD~1
    python3 tools/compare_outputs.py --base main --workload propagation --seed 3

The benchmark's seeded job sets (perfbench/workloads.py, imported and not
changed) are run through kdsim.cli.main twice: once with `src/` exported at
REF by `git archive`, once with the working tree's `src/`.  Each tree runs in
its own interpreter, one after the other, in the same scratch directory, so
the paths that the setup echo records are equal.  Per job the SHA-256 of
stdout, stderr and every file the job wrote is compared, together with the
exit code.  The ids of the differing jobs are printed; the exit code is 1 if
any job differs.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fit_campaign", "propagation", "pattern_scan")
ROUNDS = 9  # jobs per workload slot: 108 fit, 108 propagation, 117 pattern jobs per seed


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_jobs(src: str, workload: str, seed: int, workdir: str) -> dict:
    """Digests of every job's exit code, streams and written files (worker side)."""
    sys.path[:0] = [src, str(ROOT / "perfbench")]
    import workloads
    from kdsim import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise RuntimeError(f"kdsim imported from {cli.__file__}, not from {src}")
    # a warning's default text leads with the file and line that raised it,
    # which differ between the trees; keep its category and message, every time
    warnings.simplefilter("always", UserWarning)
    warnings.formatwarning = lambda message, category, *_: f"{category.__name__}: {message}\n"
    jobs = workloads.job_set(workload, seed, ROUNDS, workdir)
    for job in jobs:
        for path, text in job["files"].items():
            Path(path).write_text(text, encoding="utf-8")
    digests = {}
    for job in jobs:
        before = set(os.listdir(workdir))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(job["argv"])
            except SystemExit as exc:  # argparse rejects an argv this way
                code = exc.code
        written = sorted(set(os.listdir(workdir)) - before)
        digests[job["id"]] = {
            "code": code,
            "stdout": _sha(out.getvalue().encode()),
            "stderr": _sha(err.getvalue().encode()),
            "files": {name: _sha(Path(workdir, name).read_bytes()) for name in written},
        }
    return digests


def _run_tree(src: Path, workload: str, seed: int, workdir: Path) -> dict:
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    args = [sys.executable, __file__, "--worker", str(src), workload, str(seed), str(workdir)]
    done = subprocess.run(args, check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def _differences(base: dict, head: dict) -> list[str]:
    lines = []
    for job_id in sorted(set(base) | set(head)):
        a, b = base.get(job_id), head.get(job_id)
        if a is None or b is None:
            lines.append(f"{job_id}: only in {'head' if a is None else 'base'}")
            continue
        parts = [key for key in ("code", "stdout", "stderr") if a[key] != b[key]]
        parts += [name for name in sorted(set(a["files"]) | set(b["files"]))
                  if a["files"].get(name) != b["files"].get(name)]
        if parts:
            lines.append(f"{job_id}: {', '.join(parts)}")
    return lines


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:
        src, workload, seed, workdir = argv[1:]
        print(json.dumps(run_jobs(src, workload, int(seed), workdir)))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, metavar="REF",
                        help="git revision whose src/ is compared with the working tree")
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="job set to run (repeatable; default all three)")
    parser.add_argument("--seed", type=int, action="append",
                        help="job-set seed (repeatable; default 1 and 2)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="kdsim_compare_") as tmp:
        base_src = Path(tmp, "base")
        base_src.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.base, "src"],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base_src)], input=archive, check=True)
        total, differing = 0, 0
        for workload in args.workload or WORKLOADS:
            for seed in args.seed or (1, 2):
                runs = [_run_tree(src, workload, seed, Path(tmp, "work"))
                        for src in (base_src / "src", ROOT / "src")]
                diffs = _differences(*runs)
                total += len(runs[1])
                differing += len(diffs)
                print(f"{workload} seed {seed}: {len(runs[1])} jobs, {len(diffs)} differ")
                for line in diffs:
                    print(f"  {line}")
    print(f"{differing} of {total} jobs differ from {args.base}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
