#!/usr/bin/env bash
# Docs lint (registered as ctest label `docs-lint`): keeps the shipped
# documentation from drifting away from the code it documents.
#
#   1. Every CLI flag named in the cli.h synopsis appears in at least
#      one user-facing doc (README.md, docs/SERVING.md,
#      docs/ARCHITECTURE.md, docs/WIRE_PROTOCOL.md,
#      docs/OBSERVABILITY.md).
#   2. Every StatusCode in status.h maps to an exit-code row in both
#      README.md and docs/WIRE_PROTOCOL.md (the normative table).
#   3. Every intra-repo relative markdown link resolves to a file.
#   4. Every artifact format token (`gvex<name>-v<N>`) named in README.md,
#      DESIGN.md, EXPERIMENTS.md or docs/*.md is a string literal under
#      src/, so the docs promise no format the code cannot read.
#   5. Every `--type <name>` token in README.md and docs/*.md is a wire
#      name RequestTypeName returns (the name table in protocol.cc), so
#      no doc advertises a retired verb.
#
# Run from the repo root (ctest sets the working directory); exits
# non-zero listing every violation, so one run shows all drift.
set -uo pipefail

cd "$(dirname "$0")/.."

FAILURES=0
complain() { echo "docs-lint: $*" >&2; FAILURES=$((FAILURES + 1)); }

CLI_DOCS=(README.md docs/SERVING.md docs/ARCHITECTURE.md
          docs/WIRE_PROTOCOL.md docs/OBSERVABILITY.md)
for doc in "${CLI_DOCS[@]}"; do
  [[ -f "$doc" ]] || complain "missing expected doc: $doc"
done

echo "== docs-lint: CLI flags in cli.h vs user-facing docs"
# The synopsis block in cli.h is the flag inventory: every `--flag`
# token it names must be documented somewhere a user would look.
FLAGS="$(grep -oE -- '--[a-z][a-z0-9-]*' src/gvex/cli/cli.h | sort -u)"
[[ -n "$FLAGS" ]] || complain "no flags parsed from src/gvex/cli/cli.h"
for flag in $FLAGS; do
  if ! grep -qF -- "$flag" "${CLI_DOCS[@]}" 2>/dev/null; then
    complain "flag $flag (cli.h) is not documented in any of:" \
             "${CLI_DOCS[*]}"
  fi
done

echo "== docs-lint: StatusCode exit codes vs exit-code tables"
# ExitCodeForStatus maps enum value v -> exit v+1 (0 stays 0); the
# tables must carry one `| <exit> | <kName> |` row per code.
while IFS= read -r line; do
  name="$(echo "$line" | sed -E 's/^ *(k[A-Za-z]+) = ([0-9]+).*/\1/')"
  value="$(echo "$line" | sed -E 's/^ *(k[A-Za-z]+) = ([0-9]+).*/\2/')"
  [[ "$name" == "kOk" ]] && continue
  exit_code=$((value + 1))
  for table in README.md docs/WIRE_PROTOCOL.md; do
    [[ -f "$table" ]] || continue
    if ! grep -qE "^\| *$exit_code *\| *\`?$name\`?" "$table"; then
      complain "$table exit-code table is missing | $exit_code | $name |"
    fi
  done
done < <(grep -E '^ *k[A-Za-z]+ = [0-9]+' src/gvex/common/status.h)

echo "== docs-lint: relative markdown links resolve"
ALL_DOCS="$(ls ./*.md docs/*.md 2>/dev/null)"
for doc in $ALL_DOCS; do
  dir="$(dirname "$doc")"
  # Inline links only: [text](target). External URLs and pure anchors
  # are out of scope; a #fragment on a file link is stripped.
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    path="${target%%#*}"
    [[ -z "$path" ]] && continue
    if [[ ! -e "$dir/$path" && ! -e "$path" ]]; then
      complain "$doc links to missing file: $target"
    fi
  done < <(grep -oE '\]\([^)]+\)' "$doc" | sed -E 's/^\]\(//; s/\)$//')
done

echo "== docs-lint: artifact format names vs string literals in src/"
FORMAT_DOCS=(README.md DESIGN.md EXPERIMENTS.md docs/*.md)
for token in $(grep -ohE 'gvex[a-z]+-v[0-9]+' "${FORMAT_DOCS[@]}" | sort -u); do
  if ! grep -rqF "\"$token\"" src; then
    complain "format $token is documented but no \"$token\" literal is in src/"
  fi
done

echo "== docs-lint: client --type names vs the wire-name table"
TYPE_NAMES="$(sed -n '/kNames\[\] = {/,/};/p' src/gvex/serve/protocol.cc \
  | grep -oE '"[a-z]+"' | tr -d '"')"
[[ -n "$TYPE_NAMES" ]] || complain "no type names parsed from protocol.cc"
for name in $(grep -ohE -- '--type [a-z]+' README.md docs/*.md \
                | awk '{print $2}' | sort -u); do
  if ! grep -qxF "$name" <<< "$TYPE_NAMES"; then
    complain "--type $name is documented but is not a RequestTypeName"
  fi
done

if [[ "$FAILURES" -gt 0 ]]; then
  echo "docs-lint FAILED with $FAILURES violation(s)" >&2
  exit 1
fi
echo "docs-lint PASSED"
