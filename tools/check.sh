#!/usr/bin/env bash
# Correctness gate: builds and tests the tree under every checking mode.
#
#   tools/check.sh              # run everything available on this host
#   tools/check.sh plain        # RelWithDebInfo build + ctest
#   tools/check.sh checked      # checked contracts + site-repeat diff suite
#   tools/check.sh asan         # ASan+UBSan preset + ctest
#   tools/check.sh tsan         # TSan preset + ctest
#   tools/check.sh v3           # x86-64-v3 build (AVX2, no AVX-512) + ctest
#   tools/check.sh baseline     # SSE2-only build (CI's baseline-isa leg) + ctest
#   tools/check.sh tidy         # clang-tidy over src/ (skipped if absent)
#   tools/check.sh lint         # plf_lint project invariants over src/
#   tools/check.sh tsa          # Clang Thread Safety build (skipped if no clang)
#   tools/check.sh bench        # quick bench suite + warn-only compare
#
# Stages that need a tool the host lacks (clang-tidy, clang++ for tsa) are
# skipped with a warning rather than failed, so the script is usable both on
# dev machines and as the single entry point for CI (which installs
# everything).
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"
FAILED=()
SKIPPED=()

note() { printf '\n\033[1;34m== %s ==\033[0m\n' "$*"; }
warn() { printf '\033[1;33mwarning: %s\033[0m\n' "$*" >&2; }

# Steps are chained with && because stages run inside an if-condition
# (run_stage), which suppresses `set -e` in the function body: without the
# chain a failed configure/build would fall through to ctest against a stale
# tree and could be masked as a pass.
run_preset() {
  local preset="$1"
  note "preset '${preset}': configure" &&
    cmake --preset "${preset}" &&
    note "preset '${preset}': build" &&
    cmake --build --preset "${preset}" -j "${JOBS}" &&
    note "preset '${preset}': ctest" &&
    ctest --preset "${preset}"
}

stage_plain() { run_preset default; }
stage_asan()  { run_preset asan-ubsan; }
stage_tsan()  { run_preset tsan; }

# The whole-site kernel compiles a zmm body under AVX-512 and a ymm body
# under AVX2 + FMA (docs/KERNELS.md). -march=x86-64-v3 has no AVX-512, so
# this stage builds and tests the ymm body on any host that runs it.
stage_v3() {
  note "x86-64-v3: configure" &&
    cmake -S . -B build-v3 -G Ninja -DPLF_ENABLE_NATIVE=OFF \
      -DCMAKE_CXX_FLAGS=-march=x86-64-v3 -DPLF_WERROR=ON &&
    note "x86-64-v3: build" &&
    cmake --build build-v3 -j "${JOBS}" &&
    note "x86-64-v3: ctest" &&
    ctest --test-dir build-v3 --output-on-failure
}

# CI's baseline-isa leg: no -march at all, so the compiler targets plain
# x86-64 (SSE2). simd-site runs its (sse) body and Vec4f::fma is unfused.
stage_baseline() {
  note "baseline ISA: configure" &&
    cmake -S . -B build-baseline -G Ninja -DPLF_ENABLE_NATIVE=OFF \
      -DPLF_WERROR=ON &&
    note "baseline ISA: build" &&
    cmake --build build-baseline -j "${JOBS}" &&
    note "baseline ISA: ctest" &&
    ctest --test-dir build-baseline --output-on-failure
}

# Checked-contract build running the site-repeat, plan-dispatch, and
# tip-kernel differential suites: every backend x repeats on/off x
# PerCallBackend/native-executor cross-check plus the repeat-class, plan,
# tip-kernel and exact-rescale conformance tests and the thread-pool suites,
# with the PLF_DCHECK-level contracts (index monotonicity, plan leveling,
# tip-state range, static block tiling etc.) armed.
stage_checked() {
  note "preset 'checked': configure" &&
    cmake --preset checked &&
    note "preset 'checked': build" &&
    cmake --build --preset checked -j "${JOBS}" &&
    note "preset 'checked': differential suite" &&
    ctest --preset checked \
      -R 'BackendDiff|SiteRepeats|Repeats|Contract|Check|Plan|ComputeLevels|PerCallBackend|CumulativeScaler|CompactedClv|TipKernel|FusedScale|Arena|Budget|Checkpoint|InstanceScheduler|Partition|Coupled|Telemetry|StreamingEss|SplitRhat|DiagnosticsEdge|SimdSite|ScaleConformance|ThreadPool|ParStress'
}

# Quick bench-suite smoke: produces a schema-valid BENCH json and runs the
# regression compare warn-only (quick numbers are too noisy to gate on; the
# full-run gate is a manual/nightly step — see docs/BENCHMARKING.md).
stage_bench() {
  local out
  out="$(mktemp /tmp/plf_bench_smoke.XXXXXX.json)" &&
    note "bench: quick suite" &&
    tools/bench.sh --quick --out "${out}" &&
    note "bench: schema check + warn-only compare" &&
    python3 -m json.tool "${out}" >/dev/null &&
    build/tools/bench_compare bench/baseline.json "${out}" --warn-only &&
    rm -f "${out}"
}

stage_tidy() {
  if ! command -v clang-tidy >/dev/null 2>&1; then
    warn "clang-tidy not found on PATH; skipping the lint stage"
    SKIPPED+=(tidy)
    return 0
  fi
  note "preset 'tidy': configure + build (clang-tidy on every TU)" &&
    cmake --preset tidy &&
    cmake --build --preset tidy -j "${JOBS}"
}

# Project-invariant linter (docs/STATIC_ANALYSIS.md): builds plf_lint in the
# default tree and runs it over the compile database. Exit 1 = unsuppressed
# findings; the suppression file is the only sanctioned escape hatch.
stage_lint() {
  note "lint: configure + build plf_lint" &&
    cmake --preset default &&
    cmake --build --preset default -j "${JOBS}" --target plf_lint &&
    note "lint: plf_lint over src/" &&
    build-default/tools/plf_lint \
      --compile-commands build-default/compile_commands.json \
      --root . \
      --suppressions tools/plf_lint/suppressions.json
}

# Compile-time concurrency proofs: build the whole tree under Clang with
# -Wthread-safety (and the beta/precise groups) as errors. Needs clang++ —
# gcc parses the annotations to nothing, so there is nothing to check there.
stage_tsa() {
  if ! command -v clang++ >/dev/null 2>&1; then
    warn "clang++ not found on PATH; skipping the tsa stage"
    SKIPPED+=(tsa)
    return 0
  fi
  note "preset 'tsa': configure + build (-Werror=thread-safety)" &&
    cmake --preset tsa &&
    cmake --build --preset tsa -j "${JOBS}"
}

run_stage() {
  local name="$1"
  if "stage_${name}"; then
    return 0
  else
    FAILED+=("${name}")
    return 0
  fi
}

STAGES=("$@")
if [[ ${#STAGES[@]} -eq 0 ]]; then
  STAGES=(plain checked asan tsan v3 baseline tidy lint tsa bench)
fi

for s in "${STAGES[@]}"; do
  case "$s" in
    plain|checked|asan|tsan|v3|baseline|tidy|lint|tsa|bench) run_stage "$s" ;;
    *) echo "unknown stage '$s' (expected plain|checked|asan|tsan|v3|baseline|tidy|lint|tsa|bench)" >&2
       exit 2 ;;
  esac
done

note "summary"
if [[ ${#SKIPPED[@]} -gt 0 ]]; then
  echo "skipped: ${SKIPPED[*]} (missing tools)"
fi
if [[ ${#FAILED[@]} -gt 0 ]]; then
  echo "FAILED stages: ${FAILED[*]}"
  exit 1
fi
echo "all requested stages passed"
