#!/usr/bin/env bash
# Fails when a name that was deleted is back in the code. Reads the table
# (default: removed-names.tsv beside this script; see its header for the
# columns) from the repository root, prints every hit of every rule, and
# exits 1 if any rule hit, else 0.
#
#   bash .github/check-removed-names.sh [TABLE]
set -u
table=${1:-"$(dirname "$0")/removed-names.tsv"}
status=0
while IFS=$'\t' read -r pattern roots files allowed reason; do
  [[ -z $pattern || $pattern == \#* ]] && continue
  read -ra globs <<<"$files"
  read -ra exempt <<<"$allowed"
  includes=("${globs[@]/#/--include=}")
  # Roots are split and glob-expanded on purpose (crates/*/src). -H keeps
  # the file name in each hit when a root is a single file.
  # shellcheck disable=SC2086
  hits=$(grep -rsnHE "${includes[@]}" -e "$pattern" $roots | while IFS= read -r hit; do
    file=${hit%%:*}
    for glob in "${exempt[@]}"; do
      # shellcheck disable=SC2053
      [[ $glob != - && $file == $glob ]] && continue 2
    done
    echo "$hit"
  done)
  if [[ -n $hits ]]; then
    echo "removed name is back: /$pattern/ — $reason"
    echo "$hits"
    status=1
  fi
done <"$table"
exit "$status"
