"""Record the search-pubmed reference results into ``expected.json``.

    python3 perfbench/record_expected.py FIRST_SEED LAST_SEED

Runs the workload's fixed-epoch search once per seed and stores the
derived genotype and the final supernet validation score; every
benchmark run of a recorded seed must reproduce them. Re-record only
when a change is meant to alter the seeded search results.
"""

import json
import sys

import workloads

EXPECTED = workloads.EXPECTED


def main() -> int:
    first, last = (int(arg) for arg in sys.argv[1:3])
    table = json.loads(EXPECTED.read_text())
    recorded = table.setdefault("search-pubmed", {})
    for seed in range(first, last + 1):
        workload = workloads.SearchPubmed()
        workload.setup(seed, None, 0.0)
        result = workload.searcher.search()
        recorded[str(seed)] = {
            "genotype": result.architecture.describe(),
            "val_score": result.history[-1][1],
        }
        print(seed, recorded[str(seed)], flush=True)
    table["search-pubmed"] = dict(sorted(recorded.items(), key=lambda kv: int(kv[0])))
    EXPECTED.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
