#!/usr/bin/env bash
# gen, schedule, verify, refine, oracle, reduce-graph and experiment through
# python -m capsched, each command a fresh process, with their exit codes and
# outputs checked.
#
# From the repository root, with numpy's warnings as errors (a numpy warning
# on a successful run fails the script):
#   PYTHONPATH=src PYTHONWARNINGS=error::RuntimeWarning bash tests/commands.sh [WORKDIR]
# WORKDIR defaults to a fresh temporary directory and PYTHON (default python)
# names the interpreter. tests/test_commands.py runs it in tier-1.
set -euo pipefail
work=${1:-$(mktemp -d)}
python=${PYTHON:-python}
"$python" -m capsched gen --family random --n 200 --seed 0 --out "$work/inst.json"
"$python" -m capsched schedule "$work/inst.json" --algo A --out "$work/sched.json"
"$python" -m capsched verify "$work/inst.json" "$work/sched.json" | tail -1 | grep -x "verified=true"
# links under 1 at alpha = 100: the SINR overflows to inf
"$python" -m capsched gen --family random --n 50 --seed 0 --lmax 0.9 --alpha 100 --out "$work/steep.json"
# five unit links 100 apart at alpha = 400: the selector constants pass the float range
"$python" -c 'import json, sys; links = [{"id": i, "sx": 100.0 * i, "sy": 0.0, "rx": 100.0 * i + 1, "ry": 0.0} for i in range(5)]; json.dump({"params": {"alpha": 400, "beta": 1.2}, "links": links}, open(sys.argv[1], "w"))' "$work/alpha400.json"
for algo in A B; do
  "$python" -m capsched schedule "$work/steep.json" --algo "$algo" --out "$work/steep_$algo.json"
  "$python" -m capsched verify "$work/steep.json" "$work/steep_$algo.json" | tail -1 | grep -x "verified=true"
  "$python" -m capsched schedule "$work/alpha400.json" --algo "$algo" --out "$work/alpha400_$algo.json"
done
# two unit links 12 600 apart affect each other by 5.0e-13 = 5/p at p = 1e13
"$python" -c 'import json, sys; links = [{"id": i, "sx": 12600.0 * i, "sy": 0.0, "rx": 12600.0 * i + 1, "ry": 0.0} for i in range(2)]; json.dump({"params": {"alpha": 3, "beta": 1.2}, "links": links}, open(sys.argv[1], "w"))' "$work/pair.json"
"$python" -m capsched schedule "$work/pair.json" --algo A --out "$work/pair_A.json"
code=0
"$python" -m capsched verify "$work/pair.json" "$work/pair_A.json" --p 1e13 > "$work/pair_p.out" || code=$?
test "$code" = 1
tail -1 "$work/pair_p.out" | grep -x "verified=false"
"$python" -m capsched refine "$work/pair.json" "$work/pair_A.json" --strengthen 1.2 1e13 --out "$work/pair_strong.json"
"$python" -c 'import json, sys; sys.exit(len(json.load(open(sys.argv[1]))["slots"]) != 2)' "$work/pair_strong.json"
# link 0's sender sits on link 1's receiver: infinite interference, so the two never share a slot
"$python" -c 'import json, sys; ends = [(0, 0, 1, 0), (5, 0, 0, 0), (50, 0, 51, 0)]; links = [{"id": i, "sx": e[0], "sy": e[1], "rx": e[2], "ry": e[3]} for i, e in enumerate(ends)]; json.dump({"params": {"alpha": 3, "beta": 1.2}, "links": links}, open(sys.argv[1], "w"))' "$work/singular.json"
for algo in A B firstfit; do
  "$python" -m capsched schedule "$work/singular.json" --algo "$algo" --out "$work/singular_$algo.json"
  "$python" -m capsched verify "$work/singular.json" "$work/singular_$algo.json" | tail -1 | grep -x "verified=true"
done
printf '{"slots": [[0, 1, 2]]}' > "$work/singular_joint.json"
code=0
"$python" -m capsched verify "$work/singular.json" "$work/singular_joint.json" > "$work/singular_joint.out" || code=$?
test "$code" = 1
tail -1 "$work/singular_joint.out" | grep -x "verified=false"
# a level q^-alpha past the float range: no pair at finite affectance is q-near,
# and a sender on a receiver is q-near at every q > 0
"$python" -m capsched verify "$work/inst.json" "$work/sched.json" --q 1e-200 | tail -1 | grep -x "verified=true"
code=0
"$python" -m capsched verify "$work/singular.json" "$work/singular_joint.json" --q 1e-200 > "$work/singular_q.out" || code=$?
test "$code" = 1
grep -x "dispersed(q=1e-200): FAIL" "$work/singular_q.out"
for algo in B firstfit; do
  "$python" -m capsched schedule "$work/inst.json" --algo "$algo" --out "$work/sched_$algo.json"
  "$python" -m capsched verify "$work/inst.json" "$work/sched_$algo.json" | tail -1 | grep -x "verified=true"
done
# a per-link-power copy goes through A's default power mode
"$python" -c 'import json, sys; doc = json.load(open(sys.argv[1])); [link.update(power=2.0 ** (i % 3)) for i, link in enumerate(doc["links"])]; json.dump(doc, open(sys.argv[2], "w"))' "$work/inst.json" "$work/power.json"
"$python" -m capsched schedule "$work/power.json" --algo A --out "$work/sched_power.json"
"$python" -m capsched verify "$work/power.json" "$work/sched_power.json" | tail -1 | grep -x "verified=true"
"$python" -m capsched refine "$work/inst.json" "$work/sched.json" --strengthen 1.2 2.4 --out "$work/strong.json"
"$python" -m capsched refine "$work/inst.json" "$work/sched.json" --disperse 2 --out "$work/spread.json"
"$python" -m capsched verify "$work/inst.json" "$work/spread.json" --q 2 | tail -1 | grep -x "verified=true"
"$python" -m capsched verify "$work/inst.json" "$work/strong.json" --p 2.4 | tail -1 | grep -x "verified=true"
"$python" -m capsched gen --family clustered --n 12 --seed 0 --out "$work/small.json"
"$python" -m capsched oracle "$work/small.json" --mode schedule --out "$work/opt.json"
printf '5 4\n0 1\n1 2\n2 3\n3 4\n' > "$work/graph.txt"
"$python" -m capsched reduce-graph "$work/graph.txt" --check --out "$work/gains.json"
# a two-point sweep writes the same results with one worker and with two
for workers in 1 2; do
  printf '{"topology": {"family": "random", "n": 6, "l_max": 5.0, "field_size": 50.0}, "sweep": [["n", [6, 8]]], "algorithms": ["A-repeated", "first-fit-baseline"], "output": "%s"}' "$work/results_w$workers.csv" > "$work/sweep_w$workers.json"
  "$python" -m capsched experiment --config "$work/sweep_w$workers.json" --workers "$workers"
done
cmp "$work/results_w1.csv" "$work/results_w2.csv"
# a timings sidecar leaves the results untouched
printf '{"topology": {"family": "random", "n": 6, "l_max": 5.0, "field_size": 50.0}, "sweep": [["n", [6, 8]]], "algorithms": ["A-repeated", "first-fit-baseline"], "output": "%s", "timings": "%s"}' "$work/results_t.csv" "$work/timings.csv" > "$work/sweep_t.json"
"$python" -m capsched experiment --config "$work/sweep_t.json" --workers 2
cmp "$work/results_w1.csv" "$work/results_t.csv"
head -1 "$work/timings.csv" | grep -x "algorithm,family,n,alpha,beta,l_max,r_cluster,seed,wall_time_ms"
