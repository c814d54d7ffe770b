// Command psq is a QUEL shell over a production system: it loads a QUEL
// script (schema, ALWAYS triggers, initial data — see §2.3 of the paper)
// and then reads further statements from standard input, one per line.
//
// Usage:
//
//	psq setup.quel            # load, then interactive statements
//	echo 'retrieve (E.name)' | psq setup.quel
//	psq -rules extra.ops setup.quel
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"prodsys"
)

func main() {
	rulesPath := flag.String("rules", "", "additional OPS5 rule file loaded alongside the QUEL script")
	matcher := flag.String("matcher", "core", fmt.Sprint("matching algorithm, one of ", prodsys.Matchers()))
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: psq [flags] setup.quel")
		flag.PrintDefaults()
		os.Exit(2)
	}
	script, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "psq:", err)
		os.Exit(1)
	}
	opsRules := ""
	if *rulesPath != "" {
		data, err := os.ReadFile(*rulesPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "psq:", err)
			os.Exit(1)
		}
		opsRules = string(data)
	}
	sys, err := prodsys.LoadQuel(string(script), opsRules, prodsys.Options{
		Matcher: prodsys.Matcher(*matcher),
		Out:     os.Stdout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "psq:", err)
		os.Exit(1)
	}

	interactive := isTerminal(os.Stdin)
	if interactive {
		fmt.Println("psq — QUEL over a production system. Statements end at end of line; \\q quits.")
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for {
		if interactive {
			fmt.Print("quel> ")
		}
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "--"):
			continue
		case line == `\q` || line == "quit" || line == "exit":
			return
		case line == `\wm`:
			fmt.Println(sys.WM())
			continue
		case line == `\conflict`:
			for _, k := range sys.ConflictKeys() {
				fmt.Println(" ", k)
			}
			continue
		}
		res, err := sys.Quel(line)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			continue
		}
		if len(res.Columns) > 0 {
			fmt.Println(strings.Join(res.Columns, "\t"))
			for _, row := range res.Rows {
				fmt.Println(strings.Join(row, "\t"))
			}
			fmt.Printf("(%d row(s))\n", len(res.Rows))
			continue
		}
		fmt.Printf("(%d tuple(s) affected, %d trigger firing(s))\n", res.Affected, res.Fired)
	}
}

// isTerminal reports whether f is attached to a terminal (best effort,
// stdlib only: character devices are treated as terminals).
func isTerminal(f *os.File) bool {
	st, err := f.Stat()
	if err != nil {
		return false
	}
	return st.Mode()&os.ModeCharDevice != 0
}
