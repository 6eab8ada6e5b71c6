#!/usr/bin/env bash
# Runs a fixed set of momobs commands from the checkout ROOT and writes every
# artifact, with each command's stdout, stderr and exit code, under OUT:
#
#     bash .github/artifact_set.sh ROOT OUT
#
# The set: prop2 on the Cholesky crane at dt = 2.5e-4 to t = 0.05, the same
# at dt = 2 ms (it diverges, exit 3), the shipped prop1, prop2 and steps
# configs to t = 2, the shipped prop2 config started at r = 1e155 (r**2
# overflows to inf, so it diverges in its first step, exit 3), prop1 to
# t = 3 at its dt = 1 ms, the steps config to t = 26, across its
# disturbance switch at t = 25, a psi5_extra sweep on
# prop2, a psi3_const sweep on prop2 (psi differs per lockstep row), a
# lambda sweep on prop1, a lambda sweep on prop1 whose last value, 1e8,
# diverges (exit 3; its group falls back to one run per value), a q0[2]
# sweep on prop2 (its runs share no plant), a psi5_extra sweep on the
# dt = 2.5e-4 Cholesky run (its runs step in lockstep on the non-commuting
# path), a psi5_extra sweep on the dt = 2 ms Cholesky run (its first value
# diverges, exit 3), `momobs check` on the crane and Cholesky configs at
# seeds 0 and 3, a run and a check of a constant-inertia prop2 config
# whose first RK4 step lands on r = 0, below the projection's r >= 1, and,
# on the planar manipulator (two unknown frictions; stacked trig evaluators
# with a factor that depends on q1 + q2), `momobs check` at seeds 0 and 3, a
# lambda sweep on prop1 and, with every friction known, a psi3_const sweep
# on prop2, whose lockstep rows take the secant-sample path (no Lipschitz
# constant for T^-1), and `momobs check` at l = 1e308, whose integral map's
# differences are not finite, so its report fails (exit 1).  Last, configs
# refused with exit 2 and one line of stderr: the prop1 config with
# t_final = 1e300 at dt = 1e-300 (an infinite step count) and at dt = 1
# (more steps than 2**53), run and checked; a constant-inertia config whose
# K = 1, 2, 3 is not 2 x 2 symmetric, run and checked; the prop1 config at
# L3 = 1e200, whose factor constants overflow, run and checked; the prop2
# config on the Cholesky crane at m_r = 1e200 and at m = 1e200, whose
# rounded M^-1 has no Cholesky factor at some sample position (at m = 1e200
# not at q = 0), run and checked; a plant-only
# run whose input angle 1e308 t overflows before t_final = 2; the prop1
# config with an empty entry in q = 0, , 0, 1.0; a prop1 sweep whose
# index q0[01] has a leading zero; the manipulator at m = 1e-320, whose
# factor constant rho = sqrt(M / m) overflows, run and checked; the
# manipulator at M = 1e-320 and the constant model at M = 1e-320, 0; 0, 1,
# whose factor is finite but T T^T = M^-1 overflows, run and checked; and the prop1
# config naming a directory in [output], run with -o (the caller alone says
# where a run writes).
# And more diverging runs (exit 3, one line of stderr): the r = 1e155
# config at t_final = 9e15, dt = 1, whose 9e15 steps a run must not
# allocate for before its first step; and the prop2 config on the Cholesky
# crane at L3 = 1e20 to t_final = 0.01, run and swept over psi5_extra, whose
# factor is numerically singular, so T^-1 is refused in the first derivative
# and no series is written; and the same config at L3 = 1e11, where
# cond(T) is about 1.4e11: too large for solved_inverse's norm certificate
# and within its 1e12 limit, so the singular-value gate accepts T^-1, and
# the run diverges at t = 0 once an SVD meets a non-finite matrix.
# Configs are edited copies of ROOT's shipped ones, but for the constant and
# manipulator ones, written here so every checkout runs the same text.  Paths to ROOT and OUT
# read ROOT and OUT, so `diff -r` of two such directories, made from two
# checkouts, shows only what the code does differently.
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
# psi = 4 (1 + 59) = 240: r falls at rate 60 (r - 1), and one step of 0.1 s
# takes it from 1.5 to 0.0
cat > "$out/cfg/constant_r.cfg" <<'CFG'
[model]
name = constant
M = 1, 0; 0, 1
K = 1, 0; 0, 1
friction = 0, 0
known = true, true

[observer]
kind = prop2
psi3_const = 59

[initial]
q = 0, 0
mom = 0, 0
r = 1.5

[sim]
t_final = 0.5
dt = 0.1
stride = 1

[output]
emit_svg = false
CFG

cat > "$out/cfg/manipulator.cfg" <<'CFG'
[model]
name = manipulator
friction = 0.3, 0.2, 0.1, 0.1
known = false, false, true, true

[observer]
kind = prop1
lambda = 0.8

[initial]
q = 0.2, -0.1, 0.3, 0.1
mom = 0, 0, 0, 0

[input]
u1 = 1.0, 1.0, 0.0, cos
u2 = 0.5, 2.0, 0.0, sin

[disturbance]
step1 = 0, 0.1, 0, 0, 0

[sim]
t_final = 2
dt = 0.001
stride = 50

[output]
emit_svg = false
CFG
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
sed -e "/^name = manipulator/a l = 1e308" "$out/cfg/manipulator.cfg" \
  > "$out/cfg/manipulator_long_link.cfg"
record check_manipulator_long_link check "$out/cfg/manipulator_long_link.cfg"

# refused configs: each exits 2 with a one-line stderr
variant steps_inf spider_crane_prop1.cfg "s/^t_final = .*/t_final = 1e300/" "s/^dt = .*/dt = 1e-300/"
variant steps_past_grid spider_crane_prop1.cfg "s/^t_final = .*/t_final = 1e300/" "s/^dt = .*/dt = 1/"
sed -e "s/^K = .*/K = 1, 2, 3/" "$out/cfg/constant_r.cfg" > "$out/cfg/bad_stiffness.cfg"
variant cable_overflow spider_crane_prop1.cfg "s/^L3 = .*/L3 = 1e200/"
variant empty_entry spider_crane_prop1.cfg "s/^q = .*/q = 0, , 0, 1.0/"
variant input_overflow spider_crane_prop1.cfg "s/^kind = prop1/kind = none/" "/^lambda = /d" \
  "s/^u1 = .*/u1 = 1.0, 1e308, 0.0, cos/" "s/^t_final = .*/t_final = 2/" "s/^dt = .*/dt = 0.5/"
variant cholesky_heavy_ring spider_crane_prop2.cfg "${cholesky[@]}" "s/^m_r = .*/m_r = 1e200/"
variant cholesky_heavy_payload spider_crane_prop2.cfg "${cholesky[@]}" "s/^m = .*/m = 1e200/"
for refused in steps_inf steps_past_grid bad_stiffness cable_overflow cholesky_heavy_ring \
  cholesky_heavy_payload; do
  record "run_$refused" run "$out/cfg/$refused.cfg" -o "$out/run_$refused"
  record "check_$refused" check "$out/cfg/$refused.cfg"
done
record run_input_overflow run "$out/cfg/input_overflow.cfg" -o "$out/run_input_overflow"
record run_empty_entry run "$out/cfg/empty_entry.cfg" -o "$out/run_empty_entry"
record sweep_index_leading_zero sweep "$out/cfg/prop1.cfg" --param "q0[01]" --values 0.5 \
  -o "$out/sweep_index_leading_zero"
sed -e "/^name = manipulator/a m = 1e-320" "$out/cfg/manipulator.cfg" \
  > "$out/cfg/manipulator_light_mass.cfg"
record run_manipulator_light_mass run "$out/cfg/manipulator_light_mass.cfg" \
  -o "$out/run_manipulator_light_mass"
record check_manipulator_light_mass check "$out/cfg/manipulator_light_mass.cfg"
sed -e "/^name = manipulator/a M = 1e-320" "$out/cfg/manipulator.cfg" \
  > "$out/cfg/manipulator_light_link_mass.cfg"
record run_manipulator_light_link_mass run "$out/cfg/manipulator_light_link_mass.cfg" \
  -o "$out/run_manipulator_light_link_mass"
record check_manipulator_light_link_mass check "$out/cfg/manipulator_light_link_mass.cfg"
sed -e "s/^M = .*/M = 1e-320, 0; 0, 1/" "$out/cfg/constant_r.cfg" > "$out/cfg/constant_light_mass.cfg"
record run_constant_light_mass run "$out/cfg/constant_light_mass.cfg" -o "$out/run_constant_light_mass"
record check_constant_light_mass check "$out/cfg/constant_light_mass.cfg"
sed -e "/^\[output\]/a directory = ." "$out/cfg/prop1.cfg" > "$out/cfg/output_directory.cfg"
record run_output_directory run "$out/cfg/output_directory.cfg" -o "$out/run_output_directory"

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
