#!/usr/bin/env bash
# Runs a fixed set of momobs commands from the checkout ROOT and writes every
# artifact, with each command's stdout, stderr and exit code, under OUT:
#
#     bash .github/artifact_set.sh ROOT OUT
#
# The set: prop2 on the Cholesky crane at dt = 2.5e-4 to t = 0.05, the same
# at dt = 2 ms (it diverges, exit 3), the shipped prop1, prop2 and steps
# configs to t = 2, a psi5_extra sweep on prop2 and a lambda sweep on prop1,
# and `momobs check` on the crane and Cholesky configs at seeds 0 and 3.
# Configs are edited copies of ROOT's shipped ones.  Paths to ROOT and OUT
# read ROOT and OUT, and numpy's RuntimeWarning lines (each with the source
# line it quotes) are dropped, so `diff -r` of two such directories, made
# from two checkouts, shows only what the code does differently.
set -u
root=$(cd "$1" && pwd)
mkdir -p "$2/cfg"
out=$(cd "$2" && pwd)

momobs() {
  PYTHONPATH="$root/src" python3 -c \
    'import sys; from momobs.cli import main; sys.exit(main(sys.argv[1:]))' "$@"
}

# variant NAME SHIPPED SED-EXPRESSION...: an edited copy of a shipped config
variant() {
  local name=$1 shipped=$2
  shift 2
  local args=()
  for expr in "$@"; do args+=(-e "$expr"); done
  sed "${args[@]}" "$root/configs/$shipped" > "$out/cfg/$name.cfg"
}

# record NAME ARGS...: run momobs ARGS, keeping its stdout, stderr and exit code
record() {
  local name=$1
  shift
  momobs "$@" > "$out/$name.stdout" 2> "$out/$name.raw_stderr"
  echo $? > "$out/$name.exit"
  awk '/RuntimeWarning/ { skip = 1; next } skip { skip = 0; next } { print }' \
    "$out/$name.raw_stderr" > "$out/$name.stderr"
  rm "$out/$name.raw_stderr"
  sed -i -e "s|$out|OUT|g" -e "s|$root|ROOT|g" "$out/$name.stdout" "$out/$name.stderr"
}

cholesky=("s/^name = .*/name = spider-crane-cholesky/")
short=("s/^t_final = .*/t_final = 2/")
variant cholesky spider_crane_prop2.cfg "${cholesky[@]}" \
  "s/^t_final = .*/t_final = 0.05/" "s/^dt = .*/dt = 0.00025/" "s/^stride = .*/stride = 10/"
variant cholesky_probe spider_crane_prop2.cfg "${cholesky[@]}" "s/^t_final = .*/t_final = 0.2/"
for shipped in prop1 prop2 steps; do
  variant "$shipped" "spider_crane_$shipped.cfg" "${short[@]}"
done

record run_cholesky run "$out/cfg/cholesky.cfg" -o "$out/run_cholesky"
record run_cholesky_probe run "$out/cfg/cholesky_probe.cfg" -o "$out/run_cholesky_probe"
for shipped in prop1 prop2 steps; do
  record "run_$shipped" run "$out/cfg/$shipped.cfg" -o "$out/run_$shipped"
done
record sweep_prop2 sweep "$out/cfg/prop2.cfg" --param psi5_extra --values 0.5,1,2 -o "$out/sweep_prop2"
record sweep_prop1 sweep "$out/cfg/prop1.cfg" --param lambda --values 0.4,2 -o "$out/sweep_prop1"
for seed in 0 3; do
  record "check_crane_$seed" check "$root/configs/spider_crane_prop1.cfg" --seed "$seed"
  record "check_cholesky_$seed" check "$root/configs/spider_crane_cholesky_check.cfg" --seed "$seed"
done
