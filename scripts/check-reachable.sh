#!/bin/sh
# Fails if a function declared in internal/ or the root package is linked
# into no binary and is not named in scripts/reachable-allowlist.txt.
#
# The binaries are the module's 12 main packages: cmd/*, examples/* and
# perfbench (its own module). Each is built with inlining off
# (-gcflags=all=-l), so every call survives as a symbol, and the linker's
# dead-code elimination decides what is reached. The declared functions are
# the text symbols of each package's compiled archive (go list -export).
# Both sets are the union over three builds: the default one, -tags
# faultinject, and GOOS=darwin, since build-tagged files declare and reach
# different functions. Closures, init functions and pointer-receiver
# wrappers are folded into the function they belong to.
#
# The allowlist holds one function per line, then the reason it is kept.
# An entry fails the check when its function is reached after all or no
# longer exists. Run it with:
#
#     ./scripts/check-reachable.sh
set -eu
cd "$(dirname "$0")/.."
export LC_ALL=C # one collation for sort and comm

allow=scripts/reachable-allowlist.txt
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# names prints the text symbols of the module's non-main code in the
# given archive or binary, one per line, with (*T).M written as T.M.
names() {
    go tool nm "$1" |
        sed -n 's/^ *[0-9a-f]* [Tt] \(specchar[./][^ ]*\)$/\1/p' |
        grep -v -e '\.func[0-9]' -e '\.gowrap[0-9]' -e '\.deferwrap[0-9]' \
            -e '\.init$' -e '\.init\.[0-9]' |
        sed 's/(\*\([^)]*\))/\1/'
}

# A method of an interface type compiles to a wrapper that only a method
# expression reaches, so the methods of every interface the module
# declares are left out.
go list -f '{{.ImportPath}} {{.Dir}}' ./... | while read -r pkg dir; do
    for f in "$dir"/*.go; do
        case $f in *_test.go) continue ;; esac
        sed -n -E "s#^(type |[[:space:]]+)([A-Za-z0-9_]+) interface \\{.*#$pkg.\\2.#p" "$f"
    done
done >"$tmp/interfaces"

host=$(go env GOOS)
for cfg in default faultinject darwin; do
    goos=$host tags=
    case $cfg in
    faultinject) tags=faultinject ;;
    darwin) goos=darwin ;;
    esac
    out=$tmp/$cfg
    mkdir -p "$out"
    GOOS=$goos go build -gcflags=all=-l -tags "$tags" -o "$out/" ./cmd/... ./examples/...
    (cd perfbench && GOOS=$goos go build -gcflags=all=-l -tags "$tags" -o "$out/perfbench" .)
    for bin in "$out"/*; do
        names "$bin"
    done >>"$tmp/reached"
    GOOS=$goos go list -export -gcflags=all=-l -tags "$tags" \
        -f '{{if ne .Name "main"}}{{.Export}}{{end}}' ./... |
        while read -r archive; do
            names "$archive"
        done >>"$tmp/archives"
done

sort -u -o "$tmp/reached" "$tmp/reached"
grep -v -F -f "$tmp/interfaces" "$tmp/archives" | sort -u >"$tmp/declared"
comm -23 "$tmp/declared" "$tmp/reached" >"$tmp/unreached"

status=0
sed -e 's/#.*//' -e '/^[[:space:]]*$/d' "$allow" >"$tmp/entries"
awk 'NF < 2 { print "allowlist entry without a reason: " $1; bad = 1 } END { exit bad }' \
    "$tmp/entries" >&2 || status=1
awk '{ print $1 }' "$tmp/entries" | sort -u >"$tmp/listed"

report() {
    if [ -s "$2" ]; then
        sed "s/^/$1: /" "$2" >&2
        status=1
    fi
}
comm -23 "$tmp/unreached" "$tmp/listed" >"$tmp/unlisted"
comm -12 "$tmp/listed" "$tmp/reached" >"$tmp/stale"
comm -23 "$tmp/listed" "$tmp/declared" >"$tmp/gone"
report "reached by no binary" "$tmp/unlisted"
report "allowlisted but reached" "$tmp/stale"
report "allowlisted but not declared" "$tmp/gone"

if [ "$status" -ne 0 ]; then
    echo "delete the unreached functions, or list each in $allow with its reason" >&2
    exit 1
fi
echo "every declared function is reached or allowlisted ($(wc -l <"$tmp/listed") listed)"
