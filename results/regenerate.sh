#!/usr/bin/env bash
# Regenerates every file under results/ with the commands listed in
# results/README.md, into a temporary directory, and diffs each one against
# the committed copy, ignoring the "[<fig> took <s>s]" timing line. Exits
# non-zero when a file differs or a -check run fails. With the argument
# "update" it overwrites each committed file that differs instead.
#
#   bash results/regenerate.sh          # make results
#   bash results/regenerate.sh update   # make results-update
#
# All runs share one fresh result cache, so figures that repeat a simulation
# (fig8, fig9 and nonintensive share their SPP runs) simulate it once; a
# cached result is byte-identical to a simulated one. The whole set takes a
# few minutes, which keeps it out of `make test` and CI.
set -u
cd "$(dirname "$0")/.."

update=0
case "${1:-}" in
update) update=1 ;;
"") ;;
*)
	echo "usage: $0 [update]" >&2
	exit 2
	;;
esac

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
go build -o "$out/pexp" ./cmd/pexp || exit 1

status=0
# run NAME ARGS... writes pexp's stdout to NAME in the output directory.
run() {
	local name=$1
	shift
	echo "results/$name: pexp $*" >&2
	if ! "$out/pexp" -cache-dir "$out/cache" -quiet "$@" >"$out/$name"; then
		echo "results/$name: pexp failed" >&2
		status=1
	fi
}

# The ablation and extensions run on an 8-workload subset: the first eight
# of Fig. 12's list.
subset=libquantum,milc,soplex,bwaves,pr.road,lbm,GemsFDTD,mcf

for f in 2 3 4 5 8 9 10 11 13 nonintensive table1; do
	name=$f
	case $f in [0-9]*) name=fig$f ;; esac
	run "$name.txt" -fig "$f" -warmup 100000 -instr 400000 -check
done
# The HTML report renders the same Figure 8 run, served from the cache.
run report.log -fig 8 -warmup 100000 -instr 400000 -html "$out/report-fig8.html"
run fig12.txt -fig 12 -warmup 60000 -instr 250000 \
	-workloads libquantum,milc,soplex,bwaves,pr.road,lbm,GemsFDTD,mcf,qmm_fp_12,qmm_fp_67
run fig14.txt -fig 14 -warmup 60000 -instr 250000 -mixes 12 -check
run fig15.txt -fig 15 -warmup 60000 -instr 250000 -mixes 10 -check
run ablation.txt -fig ablation -warmup 60000 -instr 250000 -workloads "$subset"
run extensions.txt -fig extensions -warmup 60000 -instr 250000 -workloads "$subset"

untimed() { grep -v '^\[.* took .*s\]$' "$1"; }
for f in results/*.txt results/*.html; do
	name=$(basename "$f")
	if [ ! -f "$out/$name" ]; then
		echo "results/$name: no command regenerates it" >&2
		status=1
	elif diff -q <(untimed "$f") <(untimed "$out/$name") >/dev/null; then
		:
	elif [ $update = 1 ]; then
		echo "results/$name: updated" >&2
		cp "$out/$name" "$f"
	else
		diff -u --label "results/$name" --label "regenerated" <(untimed "$f") <(untimed "$out/$name")
		status=1
	fi
done
if [ $update = 0 ] && [ $status = 0 ]; then
	echo "results/ matches a fresh regeneration" >&2
fi
exit $status
