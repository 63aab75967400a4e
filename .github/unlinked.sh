#!/usr/bin/env bash
# Fails when a function declared in a non-test, non-main file of the root
# module is linked into none of the programs (every command, every example
# and the benchmark harness) and is not on the allowlist, or when an
# allowlist entry is linked again, is no longer declared, or gives no
# reason. Run from the repository root: bash .github/unlinked.sh
set -euo pipefail
export LC_ALL=C # one collation for sort and comm

allow=.github/unlinked-allowlist.txt
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/bin"

# Inlining is off for the module's own packages, so a function inlined
# into every caller still leaves its own text symbol.
gcflags='repro/...=-l'
for p in $(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...); do
	go build -gcflags="$gcflags" -o "$work/bin/${p//\//_}" "$p"
done
for p in $(go -C bench list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...); do
	go -C bench build -gcflags="$gcflags" -o "$work/bin/${p//\//_}" "$p"
done

# Linked: the programs' text symbols, with generic instantiations
# (F[go.shape.int]), pointer receivers ((*T).M) and assembly functions'
# ABI0 symbols (F.abi0) normalised to F and T.M.
for b in "$work"/bin/*; do go tool nm "$b"; done |
	sed -nE 's/^ *[0-9a-f]+ [Tt] (repro\/.*)/\1/p' |
	sed -E ':a; s/\[[^][]*\]//; ta; s/\(\*([^)]*)\)/\1/; s/\.abi0$//' |
	sort -u >"$work/linked"

# Declared: every function and method go doc lists, as path.F or path.T.M.
for p in $(go list -f '{{if and (ne .Name "main") .GoFiles}}{{.ImportPath}}{{end}}' ./...); do
	go doc -u -all "$p" |
		sed -nE 's/^func (\(([A-Za-z_0-9]+ )?\*?([A-Za-z_0-9]+)(\[[^]]*\])?\) )?([A-Za-z_0-9]+).*/\3 \5/p' |
		awk -v p="$p" 'NF == 2 { print p "." $1 "." $2; next } { print p "." $1 }'
done | sort -u >"$work/declared"

grep -v '^#' "$allow" | awk 'NF' >"$work/entries"
awk '{ print $1 }' "$work/entries" | sort -u >"$work/allowed"

fail=0
report() {
	if [ -s "$2" ]; then
		echo "$1"
		sed 's/^/  /' "$2"
		fail=1
	fi
}
comm -23 "$work/declared" "$work/linked" | comm -23 - "$work/allowed" >"$work/new"
report "Linked by no program and not on $allow (delete it, or allowlist it with a reason):" "$work/new"
comm -12 "$work/allowed" "$work/linked" >"$work/used"
report "On $allow but linked by a program (drop the entry):" "$work/used"
comm -23 "$work/allowed" "$work/declared" >"$work/gone"
report "On $allow but no longer declared (drop the entry):" "$work/gone"
awk 'NF < 2 { print $1 }' "$work/entries" >"$work/bare"
report "On $allow without a reason:" "$work/bare"
if [ "$fail" = 0 ]; then
	echo "unlinked: $(wc -l <"$work/declared") functions declared, $(wc -l <"$work/allowed") unlinked, all allowlisted"
fi
exit "$fail"
