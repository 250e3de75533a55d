"""Self-test: the benchmark's checks must count corrupted outputs as failures.

    python3 bench/selftest.py

Runs one tiny ``fit`` + ``rank`` per queue shape (core 200 / pool 220; D=8
binary with bps, and D=512 CSV with mps) and one ``sweep`` operation, then
verifies each clean output and a set of deliberately corrupted copies with
the same checks the benchmark applies. Exits 0 only when every clean
output passes and every corrupted one is counted as a failed operation,
while a byte-changed queue passes against the digest record of other
code, since digests are kept per code.
"""

from __future__ import annotations

import os
import shutil
import sys
from dataclasses import replace

import run


def _rewrite(path: str, edit) -> None:
    with open(path, newline="") as fh:
        lines = fh.read().split("\n")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(edit(lines)))


def _swap_rows(lines):
    first, last = lines[1].split(",", 1), lines[-2].split(",", 1)  # lines[-1] is empty
    lines[1], lines[-2] = f"{first[0]},{last[1]}", f"{last[0]},{first[1]}"
    return lines


def _perturb_score(lines):
    fields = lines[3].split(",")
    fields[2] = f"{float(fields[2]) - 1e-4:.9g}"
    lines[3] = ",".join(fields)
    return lines


def _perturb_pred_iou(lines):
    for i in range(1, len(lines) - 1):
        fields = lines[i].split(",")
        fields[4] = f"{min(1.0, float(fields[4]) + 1e-3):.9g}"
        lines[i] = ",".join(fields)
    return lines


def _line_endings(lines):
    # the queue is written with CRLF; LF keeps every value, changes the bytes,
    # so only the digest check can see it
    return [line.rstrip("\r") for line in lines]


QUEUE_CORRUPTIONS = {
    "swapped rows": _swap_rows,
    "perturbed score": _perturb_score,
    "perturbed pred_iou": _perturb_pred_iou,
    "changed digest": _line_endings,
}


def main() -> int:
    run.cap_threads()
    try:
        run.import_program()
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    import checks
    import measure
    import workloads

    work = os.path.join(run.WORK_ROOT, f"selftest-{os.getpid()}")
    book = checks.DigestBook(os.path.join(work, "digests.json"), checks.code_digest(run.PACKAGE))
    tally = measure.Tally()
    wrong = []

    def verify(label, workload, inputs, outcome, expect_failure, book=book):
        problems = outcome.problems or workload.verify(inputs, outcome, book)
        tally.add(label, tally.attempted, problems)
        verdict = "failed" if problems else "passed"
        print(f"  {label:<40} {verdict:<7} {'; '.join(problems)[:150]}")
        if bool(problems) != expect_failure:
            wrong.append(label)

    try:
        tiny = [
            workloads.QueueWorkload("tiny-d8", 200, 220, lift=False, pool_format="binary",
                                    strategy="bps", min_ops=1),
            workloads.QueueWorkload("tiny-d512", 200, 220, lift=True, pool_format="csv",
                                    strategy="mps", min_ops=1),
        ]
        for workload in tiny:
            inputs = workload.setup(os.path.join(work, workload.name), seed=7)
            clean = workload.execute(inputs, 0, os.path.join(work, workload.name))
            verify(f"{workload.name} clean", workload, inputs, clean, expect_failure=False)
            verify(f"{workload.name} clean, repeated", workload, inputs,
                   workload.execute(inputs, 1, os.path.join(work, workload.name)), False)
            for name, corrupt in QUEUE_CORRUPTIONS.items():
                case_dir = os.path.join(work, workload.name, name.replace(" ", "-"))
                shutil.copytree(clean.out_dir, case_dir)
                _rewrite(os.path.join(case_dir, "queue.csv"), corrupt)
                verify(f"{workload.name} {name}", workload, inputs,
                       replace(clean, out_dir=case_dir, problems=[]), expect_failure=True)
            # digests are held only to bytes written by the same code
            verify(f"{workload.name} changed digest, other code", workload, inputs,
                   replace(clean, out_dir=os.path.join(work, workload.name, "changed-digest"),
                           problems=[]), expect_failure=False,
                   book=checks.DigestBook(book.path, "0" * 64))

        sweep = workloads.WORKLOADS["sweep"]
        inputs = sweep.setup(os.path.join(work, "sweep"), seed=7)
        clean = sweep.execute(inputs, 0, os.path.join(work, "sweep"))
        verify("sweep clean", sweep, inputs, clean, expect_failure=False)
        rows = list(clean.sweep.rows)
        last = max(i for i, r in enumerate(rows) if r.budget == max(workloads.SWEEP_BUDGETS))
        rows[last] = replace(rows[last], quality=0.999)
        case_dir = os.path.join(work, "sweep", "coverage")
        shutil.copytree(clean.out_dir, case_dir)
        verify("sweep coverage below 1.0 at full budget", sweep, inputs,
               replace(clean, out_dir=case_dir, sweep=replace(clean.sweep, rows=tuple(rows))),
               expect_failure=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"selftest: {len(tally.failures)} failed / {tally.attempted} attempted; "
          f"{'OK' if not wrong else 'WRONG: ' + ', '.join(wrong)}")
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
