"""Subprocess worker for the decision-cache concurrent-writer test.

Hammers one shared workload signature: store a decision, drop the
in-memory memo, read the record back from disk.  Two of these run
simultaneously against a shared ``REPRO_TUNE_CACHE_DIR``; the flock +
write-temp-and-rename publication must guarantee every read sees a
complete, checksum-valid record from *one* of the writers — never a
torn interleaving.

Usage: python _tune_race_worker.py <worker-id> <rounds>
"""

import sys

from repro.autotune.decisions import Decision, DecisionCache

SIG = "race_sig" * 8


def main() -> None:
    wid = int(sys.argv[1])
    rounds = int(sys.argv[2])
    cache = DecisionCache()  # directory comes from REPRO_TUNE_CACHE_DIR
    for r in range(rounds):
        decision = Decision(
            order=("i", "j"),
            search="binary" if wid else "linear",
            predicted_s=1e-4 * (r + 1),
            predicted_units=float(100 * wid + r),
        )
        cache.store(SIG, decision, {"considered": r, "writer": wid})
        cache.clear_memo()  # force the next lookup through the disk tier
        rec = cache.lookup(SIG)
        if rec is None:
            print(f"TORN worker={wid} round={r}")
            sys.exit(1)
        if rec.decision.search not in ("linear", "binary"):
            print(f"GARBLED worker={wid} round={r}: {rec.decision!r}")
            sys.exit(1)
    print(f"DONE {wid}")


if __name__ == "__main__":
    main()
