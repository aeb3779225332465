// Command prfstore manages a segment store offline: the same binary
// segments cmd/prfserve serves from (-store DIR) and mutates through its
// admin endpoints, without a running server.
//
// Usage:
//
//	prfstore -store DIR import NAME KIND PATH   # persist one dataset file
//	prfstore -store DIR list                    # every segment, one line each
//	prfstore -store DIR info NAME               # metadata of one segment, JSON
//	prfstore -store DIR verify [NAME...]        # full checksum + re-encode check
//	prfstore -store DIR compact [NAME...]       # rewrite canonically, keep generation
//	prfstore -store DIR delete NAME             # remove the segment
//
// KIND is one of ind (CSV score,probability), xrel (CSV
// score,probability,group), tree (JSON and/xor spec), chain (JSON
// Markov-chain spec) — the same formats prfserve -data loads. Re-importing
// an existing NAME writes the next generation atomically; a server that
// already opened the old generation keeps serving its snapshot. verify with
// no names checks the whole store and fails on the first broken segment.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/store"
)

func main() {
	storeDir := flag.String("store", "", "segment store directory (required)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: prfstore -store DIR {import NAME KIND PATH | list | info NAME | verify [NAME...] | compact [NAME...] | delete NAME}\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if err := run(*storeDir, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "prfstore:", err)
		os.Exit(1)
	}
}

func run(storeDir string, args []string) error {
	if storeDir == "" {
		return errors.New("missing -store DIR")
	}
	if len(args) == 0 {
		return errors.New("missing command (import, list, info, verify, compact, delete)")
	}
	st, err := store.Open(storeDir)
	if err != nil {
		return err
	}
	cmd, args := args[0], args[1:]
	switch cmd {
	case "import":
		if len(args) != 3 {
			return errors.New("usage: import NAME KIND PATH")
		}
		return runImport(st, args[0], args[1], args[2])
	case "list":
		if len(args) != 0 {
			return errors.New("usage: list")
		}
		return runList(st)
	case "info":
		if len(args) != 1 {
			return errors.New("usage: info NAME")
		}
		info, err := st.Info(args[0])
		if err != nil {
			return err
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(info)
	case "verify":
		return forEach(st, args, "verified", st.Verify)
	case "compact":
		return forEach(st, args, "compacted", func(name string) error {
			_, err := st.Compact(name)
			return err
		})
	case "delete":
		if len(args) != 1 {
			return errors.New("usage: delete NAME")
		}
		if err := st.Delete(args[0]); err != nil {
			return err
		}
		fmt.Printf("deleted %s\n", args[0])
		return nil
	default:
		return fmt.Errorf("unknown command %q (import, list, info, verify, compact, delete)", cmd)
	}
}

func runImport(st *store.Store, name, kind, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	info, err := st.ImportCSV(name, kind, f)
	var bad *store.InputError
	if errors.As(err, &bad) {
		return fmt.Errorf("%s: %w", path, err)
	}
	if err != nil {
		return err
	}
	fmt.Printf("imported %s: kind %s, %d tuples, generation %d, %d bytes\n",
		info.Name, info.Kind, info.Tuples, info.Generation, info.SizeBytes)
	return nil
}

func runList(st *store.Store) error {
	names, err := st.Names()
	if err != nil {
		return err
	}
	for _, name := range names {
		info, err := st.Info(name)
		if err != nil {
			return err
		}
		fmt.Printf("%s\tkind %s\t%d tuples\tgeneration %d\t%d bytes\n",
			info.Name, info.Kind, info.Tuples, info.Generation, info.SizeBytes)
	}
	return nil
}

// forEach applies op to the named segments, or to every segment in the
// store when none are named.
func forEach(st *store.Store, names []string, verb string, op func(string) error) error {
	if len(names) == 0 {
		var err error
		if names, err = st.Names(); err != nil {
			return err
		}
	}
	for _, name := range names {
		if err := op(name); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("%s %s\n", verb, name)
	}
	return nil
}
