#!/bin/sh
# The Size table of docs/architecture.md: per crate, the lines of non-test
# Rust under src/ (everything before a file's first `#[cfg(test)]`) and the
# `pub` items declared in them. CI diffs this output against the doc, so a
# change that grows a crate shows it in review.
export LC_ALL=C # one sort order on every host
cd "$(git rev-parse --show-toplevel)" || exit 1
git ls-files 'crates/*/src/*.rs' 'vendor/*/src/*.rs' | xargs awk '
    BEGIN { print "| crate | non-test lines | `pub` items |"; print "|---|---:|---:|" }
    FNR == 1 {
        in_tests = 0
        split(FILENAME, part, "/")
        crate = part[1] == "vendor" ? "vendor/*" : "aion-" part[2]
        if (FILENAME ~ /\/bin\/benchmark\//) crate = "aion-benchmark"
        if (crate == "aion-aion") crate = "aion"
    }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests { next }
    { lines[crate]++; total_lines++ }
    /^ *pub (unsafe |const |async )*(fn|struct|enum|trait|type|const|static|mod|use) / {
        items[crate]++; total_items++
    }
    END {
        for (c in lines) printf "| `%s` | %d | %d |\n", c, lines[c], items[c] | "sort"
        close("sort")
        printf "| **total** | **%d** | **%d** |\n", total_lines, total_items
    }'
