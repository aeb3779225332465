// Command prflint runs the repository's invariant analyzers through the
// vet unit protocol:
//
//	go vet -vettool=$(which prflint) ./...
//
// cmd/go first queries `prflint -flags` (supported analyzer flags, none
// here) and `prflint -V=full` (a content hash, so editing prflint
// invalidates vet's result cache), then invokes prflint once per package
// with a vet.cfg file. scripts/lint.sh builds prflint and runs it this way
// over the whole module.
package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/unit"
)

func main() {
	args := os.Args[1:]
	for _, arg := range args {
		switch {
		case arg == "-V=full" || arg == "-V" || arg == "--V=full":
			printVersion()
			return
		case arg == "-flags" || arg == "--flags":
			fmt.Println("[]")
			return
		}
	}
	if n := len(args); n > 0 && strings.HasSuffix(args[n-1], ".cfg") {
		unit.Main(args[n-1], lint.Analyzers()) // exits
	}
	fmt.Fprintln(os.Stderr, "usage: go vet -vettool=$(which prflint) [packages]")
	os.Exit(2)
}

// printVersion emits the -V=full line cmd/go hashes into its build cache
// key: "devel" plus a buildID derived from this executable's contents, so
// a rebuilt prflint never serves stale cached vet results.
func printVersion() {
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("prflint version devel buildID=%02x\n", h.Sum(nil))
}
