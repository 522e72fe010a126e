#!/bin/sh
# Minimal CI for the Yashme reproduction.
#
#   ./ci.sh          build, (optionally) check formatting, run the tests,
#                    the CLI smoke steps and the bench/perf floors
#
# The formatting gate only runs when ocamlformat is installed: dune's
# @fmt alias shells out to it, so on images without ocamlformat the
# step is skipped rather than failing the whole pipeline.
set -eu

cd "$(dirname "$0")"

echo "== dune build"
dune build @all

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune build @fmt (ocamlformat $(ocamlformat --version))"
  dune build @fmt
else
  echo "== skip formatting check (ocamlformat not installed)"
fi

echo "== dune runtest"
dune runtest

# Every temporary file lives under one directory, removed on exit.
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

echo "== observability smoke (check --metrics --attribution-out + trace-lint)"
att="$work/att.jsonl"
dune exec bin/yashme_cli.exe -- check CCEH --jobs 2 --metrics \
  --attribution-out "$att" --quiet >/dev/null
dune exec bin/yashme_cli.exe -- trace-lint "$att"

echo "== fault-injection smoke (budgets + recovery-failure witnesses)"
# demo-diverge spins forever without a budget; under --max-ops the run
# must terminate cleanly (exit 0) and classify the spin as diverged.
out=$(dune exec bin/yashme_cli.exe -- check demo-diverge \
  --max-ops 400 --jobs 2 --quiet)
echo "$out" | grep -q "diverged" || {
  echo "ci: demo-diverge report lacks a diverged classification" >&2
  echo "$out" >&2
  exit 1
}
# demo-faulty-recovery's recovery raises on a real crash image; the
# batch must survive and report a recovery-failure finding.
out=$(dune exec bin/yashme_cli.exe -- check demo-faulty-recovery \
  --jobs 2 --quiet)
echo "$out" | grep -q "recovery-failure" || {
  echo "ci: demo-faulty-recovery report lacks a recovery-failure finding" >&2
  echo "$out" >&2
  exit 1
}

echo "== witness-corpus smoke (--corpus-out + replay + minimize + merge)"
corpus="$work/corpus.jsonl"
minimized="$work/corpus-min.jsonl"
merged="$work/corpus-merged.jsonl"
# A racy benchmark records witnesses; the corpus must replay clean
# (exit 0) in the very build that produced it.
dune exec bin/yashme_cli.exe -- check Btree --jobs 2 --quiet \
  --corpus-out "$corpus" >/dev/null
test -s "$corpus" || {
  echo "ci: check --corpus-out wrote no witnesses for Btree" >&2
  exit 1
}
dune exec bin/yashme_cli.exe -- replay "$corpus" --quiet
# Minimization must keep every witness reproducing and never grow a
# crash-plan index.
dune exec bin/yashme_cli.exe -- minimize "$corpus" -o "$minimized" --quiet \
  2>/dev/null >/dev/null
orig_max=$(grep -o '"plan":"crash_before_flush:[0-9]*"' "$corpus" \
  | grep -o '[0-9]*' | sort -n | tail -1)
min_max=$(grep -o '"plan":"crash_before_flush:[0-9]*"' "$minimized" \
  | grep -o '[0-9]*' | sort -n | tail -1)
[ "${min_max:-0}" -le "${orig_max:-0}" ] || {
  echo "ci: minimize grew a crash-plan index ($orig_max -> $min_max)" >&2
  exit 1
}
dune exec bin/yashme_cli.exe -- replay "$minimized" --quiet
# Merging a corpus with itself is the identity, byte for byte.
dune exec bin/yashme_cli.exe -- corpus merge "$corpus" "$corpus" \
  -o "$merged" >/dev/null
cmp "$corpus" "$merged" || {
  echo "ci: corpus merge of a file with itself is not byte-identical" >&2
  exit 1
}

echo "== telemetry smoke (--coverage --progress-out + coverage determinism)"
progress="$work/progress.jsonl"
cov1="$work/cov1.jsonl"
cov4="$work/cov4.jsonl"
dune exec bin/yashme_cli.exe -- check-all --jobs 1 --quiet \
  --coverage-out "$cov1" --progress-out "$progress" >/dev/null
# the progress stream is machine-readable JSONL and non-empty
test -s "$progress" || {
  echo "ci: --progress-out wrote nothing" >&2
  exit 1
}
dune exec bin/yashme_cli.exe -- trace-lint "$progress"
# coverage totals are byte-identical across --jobs counts
dune exec bin/yashme_cli.exe -- check-all --jobs 4 --quiet \
  --coverage-out "$cov4" >/dev/null
cmp "$cov1" "$cov4" || {
  echo "ci: coverage snapshot differs between --jobs 1 and --jobs 4" >&2
  exit 1
}
dune exec bin/yashme_cli.exe -- trace-lint "$cov1"

echo "== telemetry blocks determinism (--metrics --coverage, --jobs 1 vs --jobs 4)"
blocks="$work/blocks.txt"
# The printed metrics and coverage blocks are views of one registry
# merged across domains; they must not depend on the domain count.
for mode in mc mc-recovery random; do
  for j in 1 4; do
    dune exec bin/yashme_cli.exe -- check-all --mode "$mode" --jobs "$j" \
      --metrics --coverage --quiet > "${blocks}.$j"
  done
  cmp "${blocks}.1" "${blocks}.4" || {
    echo "ci: check-all --mode $mode telemetry blocks differ between --jobs 1 and --jobs 4" >&2
    exit 1
  }
done

echo "== model-checking determinism (report + corpus, --jobs 1 vs --jobs 4)"
mc_report="$work/mc-report.txt"
mc_corpus="$work/mc-corpus.jsonl"
# Families of crash points share one pre-crash run per chunk; the
# reports and witnesses must not depend on how many domains ran the
# chunks.  Both runs write the same corpus path, so the report text
# (which names it) compares byte for byte.
for mode in mc mc-recovery; do
  for j in 1 4; do
    dune exec bin/yashme_cli.exe -- check-all --mode "$mode" --jobs "$j" \
      --quiet --corpus-out "$mc_corpus" > "${mc_report}.$j"
    cp "$mc_corpus" "${mc_corpus}.$j"
  done
  cmp "${mc_report}.1" "${mc_report}.4" || {
    echo "ci: check-all --mode $mode report differs between --jobs 1 and --jobs 4" >&2
    exit 1
  }
  cmp "${mc_corpus}.1" "${mc_corpus}.4" || {
    echo "ci: check-all --mode $mode corpus differs between --jobs 1 and --jobs 4" >&2
    exit 1
  }
done

echo "== litmus-matrix smoke (variants x litmus vs committed golden)"
# The matrix pins every built-in persistency-model variant's divergence
# from strict-tso; any semantic drift fails against the committed table.
dune exec bin/yashme_cli.exe -- litmus --jobs 2 --quiet \
  --expect LITMUS_matrix.txt >/dev/null
# strict-tso is the default: an explicit --variant must not change a
# single report byte.
va=$(dune exec bin/yashme_cli.exe -- check CCEH --jobs 2 --quiet)
vb=$(dune exec bin/yashme_cli.exe -- check CCEH --jobs 2 --quiet \
  --variant strict-tso)
[ "$va" = "$vb" ] || {
  echo "ci: --variant strict-tso changed the CCEH report" >&2
  exit 1
}

echo "== profile smoke (attribution file -> cost-center table)"
out=$(dune exec bin/yashme_cli.exe -- profile "$att")
echo "$out" | grep -q "cost center *count *charged" || {
  echo "ci: profile output lacks its cost-center table header" >&2
  echo "$out" >&2
  exit 1
}

echo "== observatory smoke (--attribution invariance + ledger runs/compare)"
att1="$work/att1.jsonl"
att4="$work/att4.jsonl"
ledger="$work/ledger.jsonl"
# the attribution invariant projection is byte-identical across --jobs
dune exec bin/yashme_cli.exe -- check CCEH --jobs 1 --quiet \
  --attribution-out "$att1" >/dev/null
dune exec bin/yashme_cli.exe -- check CCEH --jobs 4 --quiet \
  --attribution-out "$att4" >/dev/null
cmp "$att1" "$att4" || {
  echo "ci: attribution export differs between --jobs 1 and --jobs 4" >&2
  exit 1
}
# the [attribution] block names the distinct cost centers on CCEH
out=$(dune exec bin/yashme_cli.exe -- check CCEH --jobs 2 --quiet \
  --attribution --ledger "$ledger")
for center in px86/snapshot_copy engine/queue_wait gc/minor; do
  echo "$out" | grep -q "$center" || {
    echo "ci: [attribution] block lacks cost center $center" >&2
    echo "$out" >&2
    exit 1
  }
done
# a second identical-config run must compare with zero non-timing deltas
dune exec bin/yashme_cli.exe -- check CCEH --jobs 2 --quiet \
  --ledger "$ledger" >/dev/null
dune exec bin/yashme_cli.exe -- runs "$ledger" >/dev/null
dune exec bin/yashme_cli.exe -- trace-lint "$ledger"
dune exec bin/yashme_cli.exe -- compare "$ledger" 1 2

echo "== soak smoke (budgets + checkpoint/resume + quarantine)"
soak_m1="$work/soak-m1.jsonl"
soak_m2="$work/soak-m2.jsonl"
soak_c1="$work/soak-c1.jsonl"
soak_c2="$work/soak-c2.jsonl"
soak_min="$work/soak-min.jsonl"
soak_mr="$work/soak-mr.jsonl"
soak_cr="$work/soak-cr.jsonl"
soak_prog="$work/soak-prog.jsonl"
soak_ledger="$work/soak-ledger.jsonl"
oracle_c1="$work/oracle-c1.jsonl"
oracle_c4="$work/oracle-c4.jsonl"
oracle_min="$work/oracle-min.jsonl"
# A budgeted soak run must stop cleanly (soak_ok=true) with a
# manifest and progress stream the existing JSONL codec accepts.
dune exec bin/yashme_cli.exe -- soak cceh --seed 7 --max-ops 1200 --jobs 2 \
  --manifest "$soak_m1" --corpus-out "$soak_c1" --progress-out "$soak_prog" \
  --quiet >/dev/null
grep -q '"soak_ok":true' "$soak_m1" || {
  echo "ci: budgeted soak run did not end soak_ok=true" >&2
  exit 1
}
dune exec bin/yashme_cli.exe -- trace-lint "$soak_m1"
dune exec bin/yashme_cli.exe -- trace-lint "$soak_prog"
# Same seed, same budget: witnesses byte-identical, manifests
# identical modulo the timing stamps and the corpus path.
dune exec bin/yashme_cli.exe -- soak cceh --seed 7 --max-ops 1200 --jobs 2 \
  --manifest "$soak_m2" --corpus-out "$soak_c2" --quiet >/dev/null
cmp "$soak_c1" "$soak_c2" || {
  echo "ci: same-seed soak runs wrote different corpora" >&2
  exit 1
}
strip_soak_manifest() {
  sed -E 's/"ts":[0-9.eE+-]+//; s/"elapsed_s":[0-9.eE+-]+//; s/"corpus":"[^"]*"//' "$1"
}
strip_soak_manifest "$soak_m1" > "${soak_m1}.s"
strip_soak_manifest "$soak_m2" > "${soak_m2}.s"
cmp "${soak_m1}.s" "${soak_m2}.s" || {
  echo "ci: same-seed soak manifests differ beyond timing fields" >&2
  exit 1
}
# Soak witnesses replay through the ordinary corpus machinery, and so
# do their minimized forms (minimize rebuilds soak programs by name).
dune exec bin/yashme_cli.exe -- replay "$soak_c1" --quiet
dune exec bin/yashme_cli.exe -- minimize "$soak_c1" -o "$soak_min" --quiet \
  2>/dev/null >/dev/null
dune exec bin/yashme_cli.exe -- replay "$soak_min" --quiet
# Interrupt mid-soak (the SIGINT-equivalent cooperative stop), then
# resume from the checkpoint: the run must reach the exact witness
# bytes of the uninterrupted run.
dune exec bin/yashme_cli.exe -- soak cceh --seed 7 --max-ops 1200 --jobs 2 \
  --manifest "$soak_mr" --corpus-out "$soak_cr" --stop-after 3 --quiet \
  >/dev/null || true
grep -q '"soak_ok":false' "$soak_mr" || {
  echo "ci: interrupted soak run did not checkpoint soak_ok=false" >&2
  exit 1
}
dune exec bin/yashme_cli.exe -- soak --resume "$soak_mr" --quiet >/dev/null
grep -q '"soak_ok":true' "$soak_mr" || {
  echo "ci: resumed soak run did not end soak_ok=true" >&2
  exit 1
}
cmp "$soak_c1" "$soak_cr" || {
  echo "ci: resumed soak corpus differs from the uninterrupted run" >&2
  exit 1
}
# The resumed manifest counts the whole run: apart from its corpus path
# and its per-invocation coverage digest it equals the uninterrupted
# run's, raw and duplicate counts included.
strip_resumed_manifest() {
  strip_soak_manifest "$1" | sed -E 's/"coverage_digest":"[^"]*"//'
}
strip_resumed_manifest "$soak_m1" > "${soak_m1}.r"
strip_resumed_manifest "$soak_mr" > "${soak_mr}.r"
cmp "${soak_m1}.r" "${soak_mr}.r" || {
  echo "ci: resumed soak manifest differs from the uninterrupted run's" >&2
  exit 1
}
# A fault storm (demo-storm's crashing delete handler) must be
# quarantined, not fatal: the run still reaches its budget.
out=$(dune exec bin/yashme_cli.exe -- soak demo-storm --seed 7 \
  --max-ops 800 --quiet)
echo "$out" | grep -q "soak_ok: true" || {
  echo "ci: fault-storm soak run did not survive to its budget" >&2
  echo "$out" >&2
  exit 1
}
echo "$out" | grep -q "quarantined" || {
  echo "ci: fault-storm soak run quarantined nothing" >&2
  echo "$out" >&2
  exit 1
}
# Two same-seed soak runs append ledger entries that compare with zero
# non-timing deltas.
for _ in 1 2; do
  dune exec bin/yashme_cli.exe -- soak cceh --seed 7 --max-ops 1200 --jobs 2 \
    --ledger "$soak_ledger" --quiet >/dev/null
done
dune exec bin/yashme_cli.exe -- compare "$soak_ledger" 1 2

echo "== invariant-oracle smoke (check --oracle + corpus + replay + minimize)"
# The fixture the race detector must NOT flag: fully fenced, but the
# flag publishes before the data it guards persists — an oracle-only
# consistency violation with a stable plan-free key.
out=$(dune exec bin/yashme_cli.exe -- check --oracle demo-inconsistency \
  --corpus-out "$oracle_c1")
echo "$out" | grep -q "0 distinct persistency race(s)" || {
  echo "ci: race detector flagged demo-inconsistency" >&2
  echo "$out" >&2
  exit 1
}
echo "$out" | grep -q "consistency-violation.*order:demo.data<demo.flag" || {
  echo "ci: oracle missed the demo-inconsistency ordering violation" >&2
  echo "$out" >&2
  exit 1
}
# Consistency witnesses replay (exit 0) and minimize in the build that
# recorded them.
dune exec bin/yashme_cli.exe -- replay "$oracle_c1" --quiet
dune exec bin/yashme_cli.exe -- minimize "$oracle_c1" -o "$oracle_min" --quiet
dune exec bin/yashme_cli.exe -- replay "$oracle_min" --quiet
# The oracle report (violations and the [oracle] block) is
# byte-identical across job counts, like every other report.
dune exec bin/yashme_cli.exe -- check --oracle demo-inconsistency --jobs 4 \
  --corpus-out "$oracle_c4" >/dev/null
cmp "$oracle_c1" "$oracle_c4" || {
  echo "ci: oracle corpus differs between --jobs 1 and --jobs 4" >&2
  exit 1
}
# The oracle subcommands: infer prints the invariant set, check exits 1
# on a violation (the CI-gate contract).
dune exec bin/yashme_cli.exe -- oracle infer demo-inconsistency \
  | grep -q "order demo.data < demo.flag" || {
  echo "ci: oracle infer did not print the ordering invariant" >&2
  exit 1
}
if dune exec bin/yashme_cli.exe -- oracle check demo-inconsistency \
  >/dev/null 2>&1; then
  echo "ci: oracle check exited 0 on a violating program" >&2
  exit 1
fi

echo "== bench harness takes no arguments"
# A stale flag from an older harness must fail loudly with exit 2,
# never run the whole paper bench.
status=0
dune exec bench/main.exe -- --throughput-only >/dev/null 2>&1 || status=$?
[ "$status" -eq 2 ] || {
  echo "ci: bench/main.exe accepted a stale flag (exit $status, expected 2)" >&2
  exit 1
}

echo "== fail-fast run closes its telemetry (progress, no temporaries)"
ff_dir="$work/failfast"
mkdir "$ff_dir"
# demo-faulty-recovery's fault re-raises under --fail-fast (exit 125);
# the session must still commit the progress stream on the way out,
# leaving no *.tmp.* file behind.
status=0
dune exec bin/yashme_cli.exe -- check demo-faulty-recovery --fail-fast \
  --progress-out "$ff_dir/progress.jsonl" --quiet >/dev/null 2>&1 || status=$?
[ "$status" -eq 125 ] || {
  echo "ci: fail-fast run exited $status, expected 125" >&2
  exit 1
}
if ls "$ff_dir" | grep -q '\.tmp\.'; then
  echo "ci: fail-fast run left a temporary file behind" >&2
  ls "$ff_dir" >&2
  exit 1
fi
dune exec bin/yashme_cli.exe -- trace-lint "$ff_dir/progress.jsonl"

echo "== repository benchmark floors (bench/perf, release profile)"
# Last, because run.sh rebuilds the tree in the release profile.  Each
# workload must run correctly, at or above its scenarios/s floor and
# at or below its allocation ceiling.  A floor is 0.6x and a ceiling
# 1.06x (BENCHMARK.json's allocation bound) the median of ten runs of
# this command on a 2-core x86-64 VM: run-to-run noise passes, while a
# build with twice the engine time per scenario, or 10% more words per
# scenario, fails.  mc-suite's pair was re-derived once its family
# members started replaying recorded recoveries: a build that runs
# every recovery again (about 19.3k words per scenario) fails it.
# recovery-j2's pair was re-derived once two-crash rows started sharing
# their first recovery and replaying unchanged second recoveries: a
# build without the second-recovery replay (about 11.8k words per
# scenario) and one without rows (about 14.1k) both fail its ceiling.
# All four pairs were re-derived once crash states became shared,
# line-indexed values: the build before that change (mc-suite 11.66k,
# recovery-j2 8.50k, soak-read 20.0k, soak-write 25.1k words per
# scenario) fails every ceiling.  They were re-derived again once
# one-thread runs started calling the executor directly and image
# copies shrank to the written extent: the build before that (mc-suite
# 10.45k, recovery-j2 6.93k, soak-read 14.56k, soak-write 18.05k words
# per scenario) fails every ceiling.  mc-suite's and recovery-j2's
# pairs were re-derived once post-crash checks stopped allocating
# (flat detector state): the build before that (mc-suite 9.18k,
# recovery-j2 5.91k words per scenario) fails both ceilings.  They were
# re-derived again once a machine's later crashes started extending its
# previous crash state instead of replaying the whole run: the build
# before that (mc-suite 6.92k, recovery-j2 4.35k words per scenario)
# fails both ceilings.  The soak pairs were re-derived once post-crash
# loads of trusted setup data stopped looking up their origins and race
# summaries stopped going through Format: the build before that
# (soak-read 9.10k, soak-write 11.67k words per scenario) fails both
# ceilings.
metric() {  # NAME FILE: one end-to-end metric from perf.exe's result line
  sed -nE "s/.*\"$1\": \{\"value\": ([^,}]*).*/\1/p" "$2"
}
perf_gate() {  # WORKLOAD FLOOR_SCENARIOS_PER_S CEILING_WORDS_PER_SCENARIO
  out="$work/perf-$1.json"
  bash bench/perf/run.sh --workload "$1" --seed 42 --seconds 2 --trace 0 \
    | tail -n 1 > "$out"
  grep -q '"correct": true' "$out" || {
    echo "ci: bench/perf $1 did not run correctly" >&2
    cat "$out" >&2
    exit 1
  }
  rate=$(metric scenarios_per_s "$out")
  words=$(metric alloc_words_per_scenario "$out")
  echo "$1: $rate scenarios/s (floor $2), $words words/scenario (ceiling $3)"
  awk -v r="$rate" -v w="$words" -v floor="$2" -v ceiling="$3" \
    'BEGIN { exit !(r != "" && w != "" && r + 0 >= floor && w + 0 <= ceiling) }' || {
    echo "ci: bench/perf $1 is below its floor or above its ceiling" >&2
    exit 1
  }
}
perf_gate mc-suite 19597 5210
perf_gate recovery-j2 48745 3922
perf_gate soak-read 18813 7714
perf_gate soak-write 12854 10204

echo "== traced soak-read run (bench/perf --trace 1)"
# The traced run keeps every result of one soak pass alive and replays
# each twice, each time with a fresh detector, so whatever a result or
# a detector retains is multiplied here first.  It must exit 0 and
# report "correct": true.
traced="$work/perf-soak-read-traced.json"
status=0
bash bench/perf/run.sh --workload soak-read --seed 42 --seconds 4 --trace 1 \
  > "$traced.full" || status=$?
tail -n 1 "$traced.full" > "$traced"
[ "$status" -eq 0 ] && grep -q '"correct": true' "$traced" || {
  echo "ci: traced bench/perf soak-read run exited $status or was not correct" >&2
  cat "$traced" >&2
  exit 1
}

echo "CI OK"
