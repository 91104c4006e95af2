#!/bin/sh
# Mechanisms name no store layout: they read a keyword through
# Mechanism.keyword_view, the one function of the mechanism layer that
# tells a flat partition from a dense fleet.  Lists every mechanism file
# that names the layout and exits 1 if there is one.
#
#   sh .github/scripts/lint_mechanism_layout.sh [REPO_ROOT]
root=${1:-.}
found=""
for f in mech_classic.ml stable_match.ml reserve.ml; do
  if grep -HnE 'State_store|Sstore|flat_view|store_of|is_flat' \
      "$root/lib/core/$f"; then
    found="$found lib/core/$f"
  fi
done
if [ -n "$found" ]; then
  echo "mechanisms name the store layout:$found"
  exit 1
fi
