#!/bin/sh
# Seeded-mutation check. Each tests/mutants/*.patch starts with a line
# `# must fail: <command>`; the patch is applied to the checkout, the command
# must build and then fail, and the patch is reverted. Exits non-zero if a
# patch no longer applies, a mutant no longer builds, or a mutant survives.
# A mutant caught by a property test is printed with the size of the shrunk
# counterexample: its draws, and the elements of its outermost collections.
# Commands run under the `mutants` profile (Cargo.toml: release code built
# incrementally) in place of `--release`.
#
#   sh tests/mutants/check.sh        # from a checkout with no local edits
set -u
cd "$(git rev-parse --show-toplevel)" || exit 2
if ! git diff --quiet; then
    echo "tests/mutants/check.sh: the checkout has local edits" >&2
    exit 2
fi
status=0
log=$(mktemp)
trap 'rm -f "$log"' EXIT
for patch in tests/mutants/*.patch; do
    cmd=$(sed -n '1s/^# must fail: //p' "$patch" | sed 's/--release/--profile mutants/')
    if [ -z "$cmd" ]; then
        echo "BAD      $patch: first line is not '# must fail: <command>'"
        status=1
        continue
    fi
    if ! git apply "$patch"; then
        echo "STALE    $patch: no longer applies"
        status=1
        continue
    fi
    if ! sh -c "$cmd --no-run" >/dev/null 2>&1; then
        echo "BROKEN   $patch: does not build under '$cmd'"
        status=1
    elif sh -c "$cmd" >"$log" 2>&1; then
        echo "SURVIVED $patch: '$cmd' passed"
        status=1
    else
        # A property-test catch reports the size of its shrunk input.
        size=$(sed -n 's/.*shrunk from [0-9]* to \([0-9]* draws ([0-9]* ops)\).*/\1/p' "$log" | head -n 1)
        echo "caught   $patch${size:+ (shrunk to $size)}"
    fi
    git apply -R "$patch" || exit 2
done
exit $status
