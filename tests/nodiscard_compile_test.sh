#!/usr/bin/env bash
# Negative-compilation guard for the [[nodiscard]] error model: a discarded
# Status or Result<T> must be a COMPILE ERROR under -Werror=unused-result,
# and the blessed forms (checking, propagating, (void)-discarding) must
# compile. TARGAD_RETURN_NOT_OK must reject anything but a Status, and the
# lock-rank table must reject two locks that share a rank.
# Usage: nodiscard_compile_test.sh <c++-compiler> <src-include-dir>.
set -u

CXX="$1"
SRC="$2"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

fail() { echo "FAIL: $1"; exit 1; }

compile() {  # compile <file>; echoes compiler exit status
  "$CXX" -std=c++20 -Wall -Wextra -Werror=unused-result -fsyntax-only \
    -I "$SRC" "$1" >"$WORK/out.txt" 2>&1
  echo $?
}

# Positive control: the blessed usage patterns must compile cleanly. If this
# fails, the negative cases below prove nothing.
cat > "$WORK/ok.cc" <<'EOF'
#include "common/result.h"
#include "common/status.h"
using targad::Result;
using targad::Status;
Status MkStatus();
Result<int> MkResult();
Status Blessed() {
  Status checked = MkStatus();
  if (!checked.ok()) return checked;
  TARGAD_RETURN_NOT_OK(MkStatus());
  TARGAD_ASSIGN_OR_RETURN(int v, MkResult());
  (void)v;
  (void)MkStatus();    // Deliberate discard must stay expressible.
  (void)MkResult();
  return Status::OK();
}
EOF
[ "$(compile "$WORK/ok.cc")" -eq 0 ] \
  || fail "blessed Status/Result usage does not compile: $(cat "$WORK/out.txt")"

# A discarded Status return value must not compile.
cat > "$WORK/drop_status.cc" <<'EOF'
#include "common/status.h"
targad::Status MkStatus();
void Dropper() { MkStatus(); }
EOF
[ "$(compile "$WORK/drop_status.cc")" -ne 0 ] \
  || fail "discarding a returned Status compiled"
grep -q "nodiscard" "$WORK/out.txt" \
  || fail "Status discard rejected for the wrong reason: $(cat "$WORK/out.txt")"

# A discarded Result<T> return value must not compile.
cat > "$WORK/drop_result.cc" <<'EOF'
#include "common/result.h"
targad::Result<double> Score();
void Dropper() { Score(); }
EOF
[ "$(compile "$WORK/drop_result.cc")" -ne 0 ] \
  || fail "discarding a returned Result<T> compiled"
grep -q "nodiscard" "$WORK/out.txt" \
  || fail "Result discard rejected for the wrong reason: $(cat "$WORK/out.txt")"

# A discarded Status factory temporary must not compile either.
cat > "$WORK/drop_factory.cc" <<'EOF'
#include "common/status.h"
void Dropper() { targad::Status::InvalidArgument("ignored"); }
EOF
[ "$(compile "$WORK/drop_factory.cc")" -ne 0 ] \
  || fail "discarding a Status factory temporary compiled"

# TARGAD_RETURN_NOT_OK takes a Status: a Result<T>, or the T that
# ValueOrDie() returns, must not convert into one.
cat > "$WORK/macro_result.cc" <<'EOF'
#include "common/result.h"
#include "common/status.h"
targad::Result<int> MkResult();
targad::Status Propagate() {
  TARGAD_RETURN_NOT_OK(MkResult());
  return targad::Status::OK();
}
EOF
[ "$(compile "$WORK/macro_result.cc")" -ne 0 ] \
  || fail "TARGAD_RETURN_NOT_OK accepted a Result<T>"

cat > "$WORK/macro_value.cc" <<'EOF'
#include "common/result.h"
#include "common/status.h"
targad::Status Propagate(targad::Result<int> r) {
  TARGAD_RETURN_NOT_OK(r.ValueOrDie());
  return targad::Status::OK();
}
EOF
[ "$(compile "$WORK/macro_value.cc")" -ne 0 ] \
  || fail "TARGAD_RETURN_NOT_OK accepted a ValueOrDie() value"

# Two locks sharing a rank must not compile. A copy of common/lock_rank.h
# that the include path finds before the real one gets the table's last
# entry set to the first entry's rank. The unedited copy must compile, or
# the failure below proves nothing.
TABLE="$SRC/common/lock_rank.h"
ENTRY=' *X(k[A-Za-z0-9]*, *'
first=$(sed -n "s/^$ENTRY\([0-9]*\)) *\\\\\$/\1/p" "$TABLE" | head -n 1)
[ -n "$first" ] || fail "no lock-rank table entry found in $TABLE"
mkdir -p "$WORK/ranks/common"
cp "$TABLE" "$WORK/ranks/common/lock_rank.h"
echo '#include "common/lock_rank.h"' > "$WORK/ranks.cc"
compile_ranks() {
  "$CXX" -std=c++20 -fsyntax-only -I "$WORK/ranks" -I "$SRC" \
    "$WORK/ranks.cc" >"$WORK/out.txt" 2>&1
  echo $?
}
[ "$(compile_ranks)" -eq 0 ] \
  || fail "the lock-rank table does not compile: $(cat "$WORK/out.txt")"
sed "s/^\($ENTRY\)[0-9]*\() *\)\$/\1$first\2/" "$TABLE" \
  > "$WORK/ranks/common/lock_rank.h"
cmp -s "$TABLE" "$WORK/ranks/common/lock_rank.h" \
  && fail "could not seed a duplicate rank into the lock-rank table"
[ "$(compile_ranks)" -ne 0 ] || fail "two locks sharing a rank compiled"
grep -q "share a rank" "$WORK/out.txt" \
  || fail "duplicate rank rejected for the wrong reason: $(cat "$WORK/out.txt")"

echo "nodiscard_compile_test PASSED"
exit 0
