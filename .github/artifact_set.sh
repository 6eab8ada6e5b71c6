#!/usr/bin/env bash
# Runs a fixed set of momobs commands from the checkout ROOT and writes every
# artifact, with each command's stdout, stderr and exit code, under OUT:
#
#     bash .github/artifact_set.sh ROOT OUT
#
# The set: runs of the shipped prop1, prop2 and steps configs and of edited
# copies (the Cholesky crane; prop2 started at r = 1e155, where r**2
# overflows; a constant-inertia prop2 config whose first step lands on
# r = 0), gain and q0[2] sweeps that step in lockstep or alone, runs and
# sweeps that diverge (exit 3, one line of stderr), and `momobs check` on
# the crane, Cholesky, manipulator and constant configs.  Last, every row of
# the refusal table tests/refusals.py, which exits 2 with one line of stderr,
# recorded by the table found beside this script, so a run against another
# checkout's src/ and configs records this checkout's rows.  Configs are
# edited copies of ROOT's shipped ones, but for the constant and manipulator
# ones, which come from the table's bases, so every checkout runs the same
# text.  Paths to ROOT and OUT read ROOT and OUT, so `diff -r` of two such
# directories, made from two checkouts, shows only what the code does
# differently.  Exits 1 when the table did not record every row.
set -u
root=$(cd "$1" && pwd)
tests=$(cd "$(dirname "$0")/../tests" && pwd)
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
  momobs "$@" > "$out/$name.stdout" 2> "$out/$name.stderr"
  echo $? > "$out/$name.exit"
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
variant big_r spider_crane_prop2.cfg "/^mom = /a r = 1e155"
variant prop1_3s spider_crane_prop1.cfg "s/^t_final = .*/t_final = 3/"
variant steps_switch spider_crane_steps.cfg "s/^t_final = .*/t_final = 26/"
PYTHONPATH="$root/src:$tests" python3 -c '
import sys, refusals
for name, path in zip(("constant", "manipulator"), sys.argv[1:]):
    open(path, "w").write(refusals.BASES[name])
' "$out/cfg/constant_r.cfg" "$out/cfg/manipulator.cfg"
sed -e "s/^kind = prop1/kind = prop2/" -e "s/^lambda = .*/psi5_extra = 1/" \
  -e "s/^known = .*/known = true, true, true, true/" \
  "$out/cfg/manipulator.cfg" > "$out/cfg/manipulator_prop2.cfg"

record run_cholesky run "$out/cfg/cholesky.cfg" -o "$out/run_cholesky"
record run_cholesky_probe run "$out/cfg/cholesky_probe.cfg" -o "$out/run_cholesky_probe"
for shipped in prop1 prop2 steps; do
  record "run_$shipped" run "$out/cfg/$shipped.cfg" -o "$out/run_$shipped"
done
record run_big_r run "$out/cfg/big_r.cfg" -o "$out/run_big_r"
record run_prop1_3s run "$out/cfg/prop1_3s.cfg" -o "$out/run_prop1_3s"
record run_steps_switch run "$out/cfg/steps_switch.cfg" -o "$out/run_steps_switch"
record sweep_prop2 sweep "$out/cfg/prop2.cfg" --param psi5_extra --values 0.5,1,2 -o "$out/sweep_prop2"
record sweep_prop2_psi3 sweep "$out/cfg/prop2.cfg" --param psi3_const --values 0.5,1,1.5 \
  -o "$out/sweep_prop2_psi3"
record sweep_prop1 sweep "$out/cfg/prop1.cfg" --param lambda --values 0.4,2 -o "$out/sweep_prop1"
record sweep_prop1_diverge sweep "$out/cfg/prop1.cfg" --param lambda --values 0.4,2,1e8 \
  -o "$out/sweep_prop1_diverge"
record sweep_prop2_q0 sweep "$out/cfg/prop2.cfg" --param "q0[2]" --values 0.8,1 -o "$out/sweep_prop2_q0"
record sweep_cholesky sweep "$out/cfg/cholesky.cfg" --param psi5_extra --values 1,2 -o "$out/sweep_cholesky"
record sweep_cholesky_probe sweep "$out/cfg/cholesky_probe.cfg" --param psi5_extra --values 1,2 \
  -o "$out/sweep_cholesky_probe"
record run_constant_r run "$out/cfg/constant_r.cfg" -o "$out/run_constant_r"
record check_constant_r check "$out/cfg/constant_r.cfg"
for seed in 0 3; do
  record "check_crane_$seed" check "$root/configs/spider_crane_prop1.cfg" --seed "$seed"
  record "check_cholesky_$seed" check "$root/configs/spider_crane_cholesky_check.cfg" --seed "$seed"
  record "check_manipulator_$seed" check "$out/cfg/manipulator.cfg" --seed "$seed"
done
record sweep_manipulator_prop1 sweep "$out/cfg/manipulator.cfg" --param lambda --values 0.4,2 \
  -o "$out/sweep_manipulator_prop1"
record sweep_manipulator_psi3 sweep "$out/cfg/manipulator_prop2.cfg" --param psi3_const \
  --values 0.5,1 -o "$out/sweep_manipulator_psi3"
sed -e "s/^l = .*/l = 1e308/" "$out/cfg/manipulator.cfg" > "$out/cfg/manipulator_long_link.cfg"
record check_manipulator_long_link check "$out/cfg/manipulator_long_link.cfg"

variant big_r_steps spider_crane_prop2.cfg "/^mom = /a r = 1e155" "s/^t_final = .*/t_final = 9e15/" \
  "s/^dt = .*/dt = 1/"
record run_big_r_steps run "$out/cfg/big_r_steps.cfg" -o "$out/run_big_r_steps"
variant cholesky_singular spider_crane_prop2.cfg "${cholesky[@]}" "s/^L3 = .*/L3 = 1e20/" \
  "s/^t_final = .*/t_final = 0.01/"
record run_cholesky_singular run "$out/cfg/cholesky_singular.cfg" -o "$out/run_cholesky_singular"
record sweep_cholesky_singular sweep "$out/cfg/cholesky_singular.cfg" --param psi5_extra \
  --values 1,2 -o "$out/sweep_cholesky_singular"
variant cholesky_ill_conditioned spider_crane_prop2.cfg "${cholesky[@]}" "s/^L3 = .*/L3 = 1e11/" \
  "s/^t_final = .*/t_final = 0.01/"
record run_cholesky_ill_conditioned run "$out/cfg/cholesky_ill_conditioned.cfg" \
  -o "$out/run_cholesky_ill_conditioned"

PYTHONPATH="$root/src" python3 "$tests/refusals.py" "$root" "$out"
