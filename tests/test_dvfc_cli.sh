#!/usr/bin/env bash
# CLI contract tests for dvfc's exit codes and usage diagnostics:
#   0 success, 1 model/evaluation errors, 2 bad usage, 3 internal.
# Run as: test_dvfc_cli.sh <path-to-dvfc>
set -u

DVFC=${1:?usage: test_dvfc_cli.sh <path-to-dvfc>}
FAILURES=0

# expect_exit <code> <stderr-pattern|-> <args...>
expect_exit() {
  local want_code=$1 pattern=$2
  shift 2
  local stderr_file
  stderr_file=$(mktemp)
  "$DVFC" "$@" >/dev/null 2>"$stderr_file"
  local got_code=$?
  if [ "$got_code" -ne "$want_code" ]; then
    echo "FAIL: dvfc $* -> exit $got_code, want $want_code" >&2
    sed 's/^/  stderr: /' "$stderr_file" >&2
    FAILURES=$((FAILURES + 1))
  elif [ "$pattern" != "-" ] && ! grep -q "$pattern" "$stderr_file"; then
    echo "FAIL: dvfc $* -> stderr missing '$pattern'" >&2
    sed 's/^/  stderr: /' "$stderr_file" >&2
    FAILURES=$((FAILURES + 1))
  else
    echo "ok: dvfc $* -> exit $got_code"
  fi
  rm -f "$stderr_file"
}

# --- flag-value rejection: exit 2 plus a usage hint, not a crash ------------
expect_exit 2 "expects" campaign VM --threads abc
expect_exit 2 "run 'dvfc' without arguments for usage" campaign VM --threads abc
expect_exit 2 "expects" campaign VM --ci-width nope
expect_exit 2 "expects" campaign VM --ci-width inf
expect_exit 2 "expects" replay /dev/null --threads abc
# The simulator is LRU only; replay takes no replacement-policy switch.
expect_exit 2 "unknown option --policy" replay /dev/null --policy lru
expect_exit 2 "unknown option --format" trace VM /dev/null --format v1
expect_exit 2 "unknown option --policy" trace VM /dev/null --policy lru
# Only campaign and replay take --threads; kernels times its runs serially.
expect_exit 2 "unknown option --threads" kernels --threads 2

# --- the sharded trace/replay round trip ------------------------------------
TMP_TRACE=$(mktemp --suffix=.dvft)
expect_exit 0 - trace VM "$TMP_TRACE"
expect_exit 0 - replay "$TMP_TRACE" --threads 4
expect_exit 0 - replay "$TMP_TRACE" --threads 2
rm -f "$TMP_TRACE"
# A version-1 trace is refused with the version read and the fix.
V1_TRACE="$(cd "$(dirname "$0")" && pwd)/fuzz_corpus/tiny_v1.dvft"
expect_exit 1 "unsupported trace version 1 " replay "$V1_TRACE"
expect_exit 1 "re-record the trace with dvfc trace" replay "$V1_TRACE"

# --- the global --deadline flag ---------------------------------------------
expect_exit 2 "positive number of seconds" kernels --deadline -5
expect_exit 2 "positive number of seconds" kernels --deadline 0
expect_exit 2 "positive number of seconds" kernels --deadline banana
expect_exit 2 "positive number of seconds" kernels --deadline 1.5x
# An absurdly tight deadline is a *model evaluation* failure (exit 1) with
# the classified taxonomy kind in the message — not a hang, not bad usage.
expect_exit 1 "deadline_exceeded" kernels --deadline 0.000001
# A generous deadline leaves a healthy run untouched.
expect_exit 0 - kernels VM --deadline 30
MODEL="$(cd "$(dirname "$0")" && pwd)/../models/vm.aspen"
if [ -f "$MODEL" ]; then
  expect_exit 0 - check "$MODEL"
else
  echo "skip: $MODEL not found" >&2
fi
# Unknown commands report usage and exit 2.
expect_exit 2 "usage:" frobnicate

# --- overflowing numeric literals are positioned diagnostics (DVF-E018) -----
TMP_MODEL=$(mktemp --suffix=.aspen)
printf 'param big = 1e999;\n' >"$TMP_MODEL"
stderr_file=$(mktemp)
"$DVFC" lint "$TMP_MODEL" >"$stderr_file" 2>&1
code=$?
if [ "$code" -ne 1 ]; then
  echo "FAIL: dvfc lint (E018 case) -> exit $code, want 1" >&2
  FAILURES=$((FAILURES + 1))
elif ! grep -q "DVF-E018" "$stderr_file"; then
  echo "FAIL: dvfc lint (E018 case) did not report DVF-E018" >&2
  sed 's/^/  out: /' "$stderr_file" >&2
  FAILURES=$((FAILURES + 1))
elif ! grep -q "1:13" "$stderr_file"; then
  echo "FAIL: E018 diagnostic missing the literal's position 1:13" >&2
  sed 's/^/  out: /' "$stderr_file" >&2
  FAILURES=$((FAILURES + 1))
else
  echo "ok: dvfc lint reports DVF-E018 at the literal's span"
fi
rm -f "$TMP_MODEL" "$stderr_file"

# --- check --json words a parse error like lint --json ----------------------
# The message carries no "parse error at L:C: " prefix; line and column hold
# the location.
TMP_MODEL=$(mktemp --suffix=.aspen)
printf 'model "m" {\n  time 1.0\n  data A { elements 4; element_size 8; }\n}\n' \
  >"$TMP_MODEL"
stderr_file=$(mktemp)
"$DVFC" check --json "$TMP_MODEL" >"$stderr_file" 2>&1
code=$?
want="\"line\":3,\"column\":3,\"length\":1,\"severity\":\"error\",\"code\":\"DVF-E001\",\"message\":\"expected ';' (found identifier 'data')\""
if [ "$code" -ne 1 ]; then
  echo "FAIL: dvfc check --json (parse error) -> exit $code, want 1" >&2
  FAILURES=$((FAILURES + 1))
elif ! grep -qF "$want" "$stderr_file"; then
  echo "FAIL: dvfc check --json parse error is not worded like lint --json" >&2
  sed 's/^/  out: /' "$stderr_file" >&2
  FAILURES=$((FAILURES + 1))
else
  echo "ok: dvfc check --json reports a parse error without the prefix"
fi
rm -f "$TMP_MODEL" "$stderr_file"

# --- the analyze exit-code contract (0 clean / 1 findings / 2 usage) --------
# Mirrors lint: notes keep exit 0, --werror promotes warnings, bad flags and
# unreadable files are usage errors.
if [ -f "$MODEL" ]; then
  expect_exit 0 - analyze "$MODEL"
  expect_exit 0 - analyze "$MODEL" --json
  expect_exit 2 "unknown option" analyze "$MODEL" --csv
  expect_exit 2 "unknown option --threads" analyze "$MODEL" --threads 2
else
  echo "skip: $MODEL not found" >&2
fi
expect_exit 2 "usage:" analyze
expect_exit 2 "cannot open" analyze /nonexistent/model.aspen
# fmt reads through the same reader as check, lint and analyze.
expect_exit 2 "cannot open model file" fmt /nonexistent/model.aspen
TMP_MODEL=$(mktemp --suffix=.aspen)
# A dead structure is a provable A301 warning: clean exit without --werror,
# failure with it.
printf 'model "M" { time 1.0; data idle { elements 8; element_size 8; } }\n' \
  >"$TMP_MODEL"
expect_exit 0 - analyze "$TMP_MODEL"
expect_exit 1 - analyze "$TMP_MODEL" --werror
stderr_file=$(mktemp)
"$DVFC" analyze "$TMP_MODEL" >"$stderr_file" 2>&1
if ! grep -q "DVF-A301" "$stderr_file"; then
  echo "FAIL: dvfc analyze did not report DVF-A301 for a dead structure" >&2
  sed 's/^/  out: /' "$stderr_file" >&2
  FAILURES=$((FAILURES + 1))
else
  echo "ok: dvfc analyze reports DVF-A301 for a dead structure"
fi
# Lowering errors keep the lint contract: exit 1 with the Exxx code.
printf 'model "M" { pattern Z stream { stride 1; } }\n' >"$TMP_MODEL"
"$DVFC" analyze "$TMP_MODEL" >"$stderr_file" 2>&1
code=$?
if [ "$code" -ne 1 ]; then
  echo "FAIL: dvfc analyze (E009 case) -> exit $code, want 1" >&2
  FAILURES=$((FAILURES + 1))
elif ! grep -q "DVF-E009" "$stderr_file"; then
  echo "FAIL: dvfc analyze (E009 case) did not report DVF-E009" >&2
  sed 's/^/  out: /' "$stderr_file" >&2
  FAILURES=$((FAILURES + 1))
else
  echo "ok: dvfc analyze reports lowering errors with exit 1"
fi
# The canonical hash is printed and stable across runs.
printf 'model "M" { time 1.0; data A { elements 64; element_size 8; }
pattern A stream { stride 1; } }\n' >"$TMP_MODEL"
hash1=$("$DVFC" analyze "$TMP_MODEL" | grep "canonical hash")
hash2=$("$DVFC" analyze "$TMP_MODEL" | grep "canonical hash")
if [ -z "$hash1" ] || [ "$hash1" != "$hash2" ]; then
  echo "FAIL: canonical hash missing or unstable across runs" >&2
  echo "  run 1: $hash1" >&2
  echo "  run 2: $hash2" >&2
  FAILURES=$((FAILURES + 1))
else
  echo "ok: dvfc analyze canonical hash stable across runs"
fi
rm -f "$TMP_MODEL" "$stderr_file"

# --- dvfc serve: transport selection is bad usage, stdio batch works --------
# Exactly one of --socket/--stdio must be given.
expect_exit 2 "exactly one transport" serve
expect_exit 2 "exactly one transport" serve --stdio --socket /tmp/x.sock
expect_exit 2 "unknown option" serve --stdio --frobnicate 1
expect_exit 2 "must be positive" serve --stdio --queue 0
expect_exit 2 "must be positive" serve --stdio --max-connections 0
# A stdio batch: every frame gets a response line, EOF drains cleanly (exit
# 0), and a garbage frame gets a typed parse_error.
EVAL_FRAME='"op":"eval","source":"model \"m\" { time 1; data A { elements 8; element_size 8; } pattern A stream { stride 1; } }"}'
stderr_file=$(mktemp)
out_file=$(mktemp)
printf '%s\n%s\n%s\n%s\n' \
  '{"id":1,"op":"ping"}' \
  "{\"id\":2,$EVAL_FRAME" \
  "{\"id\":3,$EVAL_FRAME" \
  'this is not json' \
  | "$DVFC" serve --stdio --workers 2 >"$out_file" 2>"$stderr_file"
code=$?
if [ "$code" -ne 0 ]; then
  echo "FAIL: dvfc serve --stdio batch -> exit $code, want 0" >&2
  sed 's/^/  stderr: /' "$stderr_file" >&2
  FAILURES=$((FAILURES + 1))
elif [ "$(wc -l <"$out_file")" -ne 4 ]; then
  echo "FAIL: dvfc serve --stdio batch: want 4 response lines" >&2
  sed 's/^/  out: /' "$out_file" >&2
  FAILURES=$((FAILURES + 1))
elif ! grep -q '"kind":"parse_error"' "$out_file"; then
  echo "FAIL: dvfc serve --stdio batch: garbage frame not a parse_error" >&2
  sed 's/^/  out: /' "$out_file" >&2
  FAILURES=$((FAILURES + 1))
else
  echo "ok: dvfc serve --stdio batch (4 responses, typed errors)"
fi
# The duplicate source is served from the compiled-model cache. Two workers
# may compile the pair at once and both miss, so this batch has one worker:
# the first frame compiles, the second must hit.
printf '%s\n%s\n' "{\"id\":4,$EVAL_FRAME" "{\"id\":5,$EVAL_FRAME" \
  | "$DVFC" serve --stdio --workers 1 >"$out_file" 2>"$stderr_file"
code=$?
if [ "$code" -ne 0 ]; then
  echo "FAIL: dvfc serve --stdio --workers 1 batch -> exit $code, want 0" >&2
  sed 's/^/  stderr: /' "$stderr_file" >&2
  FAILURES=$((FAILURES + 1))
elif [ "$(wc -l <"$out_file")" -ne 2 ] ||
     ! sed -n 2p "$out_file" | grep -q '"cache":"hit"'; then
  echo "FAIL: dvfc serve --stdio batch: duplicate source did not hit cache" >&2
  sed 's/^/  out: /' "$out_file" >&2
  FAILURES=$((FAILURES + 1))
else
  echo "ok: dvfc serve --stdio batch (duplicate source hits the cache)"
fi
rm -f "$out_file" "$stderr_file"

# --- no-argument invocation prints usage and exits 2 ------------------------
"$DVFC" >/dev/null 2>&1
if [ $? -ne 2 ]; then
  echo "FAIL: bare dvfc should exit 2" >&2
  FAILURES=$((FAILURES + 1))
else
  echo "ok: bare dvfc -> exit 2"
fi

if [ "$FAILURES" -ne 0 ]; then
  echo "$FAILURES CLI contract failure(s)" >&2
  exit 1
fi
echo "all dvfc CLI contract checks passed"
