"""Byte comparison of kdsim's CLI outputs between a git revision and the working tree.

    python3 tools/compare_outputs.py --base HEAD~1
    python3 tools/compare_outputs.py --base main --workload propagation --seed 3

The benchmark's seeded job sets (perfbench/workloads.py, imported and not
changed) are run through kdsim.cli.main twice: once with `src/` exported at
REF by `git archive`, once with the working tree's `src/`.  Each tree runs in
its own interpreter, one after the other, in the same scratch directory, so
the paths that the setup echo records are equal.  Per job the SHA-256 of
stdout, stderr and every file the job wrote is compared, together with the
exit code.  Each workload's summary line ends with the largest absolute
difference between corresponding numbers over its differing jobs.  The ids
of the differing jobs are printed.  Each is followed by
the largest absolute difference between corresponding numbers in its differing
CSV files, and the file where it occurs; and, per differing JSON file, by the
dotted key paths whose values differ (items of a list share the list's path),
each with its largest |diff|, e.g. `payload.r_eff_hat 2.9e-08`.  The exit code
is 1 if any job differs.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fit_campaign", "propagation", "pattern_scan")
ROUNDS = 9  # jobs per workload slot: 108 fit, 108 propagation, 117 pattern jobs per seed
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_ABSENT = object()  # a JSON key on one side only


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


def _number_change(a: str, b: str) -> float | None:
    """Largest |x - y| over corresponding numbers of two texts; None if other text differs."""
    if _NUMBER.sub("#", a) != _NUMBER.sub("#", b):
        return None
    pairs = zip(_NUMBER.findall(a), _NUMBER.findall(b))
    return max((abs(float(x) - float(y)) for x, y in pairs if x != y), default=0.0)


def _key_changes(a, b, path: str = "", out: dict | None = None) -> dict:
    """Largest |x - y| per dotted key path over two JSON values.

    The items of a list share the list's path.  A change that is not between
    two numbers (text, a length, an absent key) is recorded as None.
    """
    out = {} if out is None else out
    if isinstance(a, dict) and isinstance(b, dict):
        for key in [*a, *(k for k in b if k not in a)]:
            _key_changes(a.get(key, _ABSENT), b.get(key, _ABSENT),
                         f"{path}.{key}" if path else key, out)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            _key_changes(x, y, path, out)
    elif repr(a) != repr(b):  # NaN equals NaN here
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
        old = out.get(path, 0.0)
        out[path] = max(abs(a - b), old) if numbers and old is not None else None
    return out


def _file_changes(names: list[str], dirs: tuple[Path, Path]) -> tuple[str, list[str], float]:
    """A summary of the numeric change over the CSV files among names, per JSON
    file among them a line naming each key path that differs, and the largest
    numeric change over both."""
    changes, notes, lines, largest = [], [], [], 0.0
    for name in names:
        paths = [Path(d, name) for d in dirs]
        if Path(name).suffix not in (".json", ".csv") or not all(p.is_file() for p in paths):
            continue
        texts = [p.read_text(encoding="utf-8") for p in paths]
        if name.endswith(".json"):
            try:
                keys = _key_changes(*map(json.loads, texts))
            except ValueError:  # not JSON on one side: compared as text below
                pass
            else:
                largest = max([largest, *(c for c in keys.values() if c is not None)])
                lines.append(f"{name}: " + (", ".join(
                    f"{k or '(document)'} {'not numeric' if c is None else format(c, '.3g')}"
                    for k, c in keys.items()) or "equal values, other bytes"))
                continue
        change = _number_change(*texts)
        if change is None:
            notes.append(f"{name} differs beyond its numbers")
        else:
            changes.append((change, name))
    if changes:
        notes.insert(0, "max |diff| {:.3g} in {}".format(*max(changes)))
        largest = max(largest, max(changes)[0])
    return "; ".join(notes), lines, largest


def _differences(base: dict, head: dict, dirs: tuple[Path, Path]) -> tuple[list[str], float]:
    """A line per differing job, and the largest numeric change over them."""
    lines, largest = [], 0.0
    for job_id in sorted(set(base) | set(head)):
        a, b = base.get(job_id), head.get(job_id)
        if a is None or b is None:
            lines.append(f"{job_id}: only in {'head' if a is None else 'base'}")
            continue
        parts = [key for key in ("code", "stdout", "stderr") if a[key] != b[key]]
        files = [name for name in sorted(set(a["files"]) | set(b["files"]))
                 if a["files"].get(name) != b["files"].get(name)]
        if parts or files:
            summary, keys, change = _file_changes(files, dirs)
            largest = max(largest, change)
            lines.append(f"{job_id}: {', '.join(parts + files)}"
                         + (f" ({summary})" if summary else "")
                         + "".join(f"\n    {line}" for line in keys))
    return lines, largest


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
                # both trees write to one path (the setup echo records it), so the
                # base tree's files are moved aside before the working tree runs
                base_out = Path(tmp, "base_out")
                shutil.rmtree(base_out, ignore_errors=True)
                runs = [_run_tree(base_src / "src", workload, seed, Path(tmp, "work"))]
                Path(tmp, "work").rename(base_out)
                runs.append(_run_tree(ROOT / "src", workload, seed, Path(tmp, "work")))
                diffs, largest = _differences(*runs, (base_out, Path(tmp, "work")))
                total += len(runs[1])
                differing += len(diffs)
                print(f"{workload} seed {seed}: {len(runs[1])} jobs, {len(diffs)} differ, "
                      f"max |diff| {largest:.3g}")
                for line in diffs:
                    print(f"  {line}")
    print(f"{differing} of {total} jobs differ from {args.base}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
