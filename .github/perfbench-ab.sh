#!/usr/bin/env bash
# Same-runner A/B of the end-to-end benchmark: runs perfbench's replicate
# workload three times in each of two checkouts, alternating which tree
# runs first, and prints a markdown table of every run's wall_s and
# trials_per_s, the medians and the head/base ratios.
#
#   bash .github/perfbench-ab.sh BASE_DIR [HEAD_DIR]
#
# HEAD_DIR defaults to the current directory. The table is appended to
# $GITHUB_STEP_SUMMARY when set, else printed. The script fails only when
# a run's last line does not report "correct": true, or when every head
# wall_s exceeds every base wall_s by more than the wall_s bound in
# HEAD_DIR/BENCHMARK.json.
set -euo pipefail
base=$(cd "$1" && pwd)
head=$(cd "${2:-.}" && pwd)
summary=${GITHUB_STEP_SUMMARY:-/dev/stdout}
bound=$(jq -e '.end_to_end[] | select(.name == "wall_s") | .bound' "$head/BENCHMARK.json")
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# run TREE LABEL I: one benchmark run, reduced to a JSON line of its
# metrics. A failing run still yields a line, with correct false.
run() {
	local log="$out/$2-$3.log"
	(cd "$1" && bash perfbench/run.sh --workload replicate --seed 1 --seconds 5 --trace 0) >"$log" || true
	jq -nc --arg tree "$2" --argjson run "$3" --arg last "$(tail -n 1 "$log")" \
		'($last | try fromjson catch null) as $r
		| {tree: $tree, run: $run, correct: ($r.correct == true),
		   wall_s: $r.metrics.wall_s.value, trials_per_s: $r.metrics.trials_per_s.value}' \
		>>"$out/runs.jsonl"
}

for i in 1 2 3; do
	if ((i % 2)); then
		run "$base" base "$i"
		run "$head" head "$i"
	else
		run "$head" head "$i"
		run "$base" base "$i"
	fi
done

jq -rs --argjson bound "$bound" -f /dev/stdin "$out/runs.jsonl" >"$out/summary.md" <<'JQ'
def median: sort | .[length / 2 | floor];
def fmt: if . == null then "—" elif . >= 1000 then round | tostring else . * 1000 | round / 1000 | tostring end;
def ratio($a; $b): if $a and $b then $a / $b else null end;
def trees(f): {base: map(select(.tree == "base") | f), head: map(select(.tree == "head") | f)};
(trees(.wall_s | values)) as $w
| (trees(.trials_per_s | values)) as $t
| ($w.base | median) as $wb | ($w.head | median) as $wh
| ($t.base | median) as $tb | ($t.head | median) as $th
| "### perfbench A/B: replicate, seed 1, 5 s a run",
  "",
  "| run | tree | correct | wall_s | trials_per_s |",
  "|---|---|---|---|---|",
  (.[] | "| \(.run) | \(.tree) | \(.correct) | \(.wall_s | fmt) | \(.trials_per_s | fmt) |"),
  "",
  "| | base | head | head ÷ base |",
  "|---|---|---|---|",
  "| median wall_s | \($wb | fmt) | \($wh | fmt) | \(ratio($wh; $wb) | fmt) |",
  "| median trials_per_s | \($tb | fmt) | \($th | fmt) | \(ratio($th; $tb) | fmt) |",
  "",
  if all(.[]; .correct) | not then
    "FAIL: a run did not report correct == true."
  elif ($w.head | min) > ($w.base | max) * (1 + $bound) then
    "FAIL: every head wall_s exceeds every base wall_s by more than the wall_s bound \($bound)."
  else
    "PASS: all runs correct; some head wall_s is within the wall_s bound \($bound) of some base wall_s."
  end
JQ
cat "$out/summary.md" >>"$summary"
! grep -q '^FAIL' "$out/summary.md"
