#!/usr/bin/env bash
# Usage: .github/scripts/bench-pairs.sh REV WORKLOAD SEED PAIRS OUT   (run from the repository root)
#
# Runs `python3 bench/run.py --workload WORKLOAD --seed SEED --seconds 4
# --trace 0` PAIRS times in commit REV and PAIRS times in the working tree,
# alternating the two and switching which side runs first from one pair to
# the next.  REV is exported with `git archive` into a temporary directory,
# as compare-artifacts.sh does; each side runs its own bench/ and src/.
#
# Adds one record to the JSON file OUT (a list of records; created if
# missing): for each end-to-end metric of BENCHMARK.json, each side's
# median and quartiles over its runs, its bound, and in how many pairs the
# working tree read better (ties count for neither side); each side's
# failed operations per run; and whether every run of both sides wrote the
# same result fingerprint.
set -eo pipefail
rev=${1:?usage: bench-pairs.sh REV WORKLOAD SEED PAIRS OUT}
workload=${2:?usage: bench-pairs.sh REV WORKLOAD SEED PAIRS OUT}
seed=${3:?usage: bench-pairs.sh REV WORKLOAD SEED PAIRS OUT}
pairs=${4:?usage: bench-pairs.sh REV WORKLOAD SEED PAIRS OUT}
out=${5:?usage: bench-pairs.sh REV WORKLOAD SEED PAIRS OUT}
root=$(pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/base" "$tmp/runs"
git archive "$rev" | tar -x -C "$tmp/base"
result=".bench_out/results/$workload-seed$seed-trace0.json"

run() {  # run SIDE DIR PAIR: one benchmark run, its result file kept as runs/SIDE-PAIR.json
    (cd "$2" && python3 bench/run.py --workload "$workload" --seed "$seed" --seconds 4 --trace 0 \
        > "$tmp/runs/$1-$3.stdout")
    cp "$2/$result" "$tmp/runs/$1-$3.json"
    echo "pair $3 $1: $(tail -n 1 "$tmp/runs/$1-$3.stdout")"
}

for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then
        run base "$tmp/base" "$i"
        run change "$root" "$i"
    else
        run change "$root" "$i"
        run base "$tmp/base" "$i"
    fi
done

python3 - "$tmp/runs" "$pairs" "$out" "$rev" "$(git rev-parse "$rev")" <<'EOF'
import json
import os
import statistics
import sys

runs, pairs, out, rev, sha = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4], sys.argv[5]
bench = json.load(open("BENCHMARK.json"))
sides = {side: [json.load(open(f"{runs}/{side}-{i}.json")) for i in range(pairs)]
         for side in ("base", "change")}


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


metrics = {}
for spec in bench["end_to_end"]:
    name, sign = spec["name"], 1 if spec["better"] == "lower" else -1
    values = {side: [r["metrics"][name]["value"] for r in recs] for side, recs in sides.items()}
    metrics[name] = {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
                     "base": summary(values["base"]), "change": summary(values["change"]),
                     "change_better_pairs": sum(sign * (c - b) < 0 for b, c in
                                                zip(values["base"], values["change"]))}
first = sides["base"][0]
record = {"workload": first["workload"], "seed": first["seed"], "seconds": first["seconds"],
          "trace": first["trace"], "pairs": pairs, "base": rev, "base_commit": sha,
          "change": "working tree", "change_provenance": sides["change"][0]["provenance"],
          "first_in_pair": ["base" if i % 2 == 0 else "change" for i in range(pairs)],
          "metrics": metrics,
          "failed": {side: [r["failed"] for r in recs] for side, recs in sides.items()},
          "attempted": {side: [r["attempted"] for r in recs] for side, recs in sides.items()},
          "fingerprints_equal": all(r["fingerprint"] == first["fingerprint"]
                                    for recs in sides.values() for r in recs)}
records = json.load(open(out)) if os.path.exists(out) else []
records.append(record)
with open(out, "w") as fh:
    json.dump(records, fh, indent=1)
    fh.write("\n")
for name, m in metrics.items():
    print(f"{record['workload']} seed {record['seed']} {name}: base {m['base']['median']:.4f} "
          f"({m['base']['q1']:.4f}-{m['base']['q3']:.4f}) -> change {m['change']['median']:.4f}, "
          f"change better in {m['change_better_pairs']}/{pairs}")
print(f"fingerprints equal: {record['fingerprints_equal']}")
EOF
