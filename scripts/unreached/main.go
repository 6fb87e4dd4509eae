// Command unreached fails when the tree declares a function that no binary
// links. It builds every main package of the module plus the perfbench
// module with inlining off (-gcflags=all=-l), reads each binary's text
// symbols with `go tool nm`, and compares them with every function and
// method declared in a non-test file of a non-main package:
//
//	go run ./scripts/unreached
//
// A declaration that no binary links is reported as "file:line symbol".
// Entries of the allowlist (scripts/unreached/allowlist.txt, one symbol
// and its reason per line) are exempt, but an entry that a binary now
// links or that is no longer declared is reported as stale, so the list
// can only shrink. The linker keeps methods conservatively (any method
// whose name an interface call could reach survives), so the gate can
// miss dead methods but never flags live code.
package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

const (
	// allowPath is the allowlist, relative to the module root.
	allowPath = "scripts/unreached/allowlist.txt"
	// benchModule is a module of its own whose main package imports
	// internal packages, so it is built alongside the root module's
	// binaries: a deletion must not break the benchmark's build.
	benchModule = "perfbench"
)

func main() {
	allow, err := readAllowlist(allowPath)
	if err != nil {
		fatal("%v", err)
	}
	pkgs, err := listPackages()
	if err != nil {
		fatal("%v", err)
	}
	linked, nbin, err := linkedSymbols(pkgs)
	if err != nil {
		fatal("%v", err)
	}
	decls, err := declarations(pkgs)
	if err != nil {
		fatal("%v", err)
	}

	var problems []string
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.sym] = true
		if linked[d.sym] {
			continue
		}
		if _, ok := allow[d.sym]; ok {
			continue
		}
		problems = append(problems, fmt.Sprintf("%s %s: linked by no binary", d.pos, d.sym))
	}
	for sym, line := range allow {
		switch {
		case !declared[sym]:
			problems = append(problems, fmt.Sprintf("%s:%d %s: stale allowlist entry: not declared", allowPath, line, sym))
		case linked[sym]:
			problems = append(problems, fmt.Sprintf("%s:%d %s: stale allowlist entry: linked by a binary", allowPath, line, sym))
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "unreached: FAIL:", p)
		}
		os.Exit(1)
	}
	fmt.Printf("unreached: OK (%d functions, %d binaries, %d allowlisted)\n", len(decls), nbin, len(allow))
}

type pkg struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
}

// listPackages returns the root module's packages with their non-test
// files, as the go command selects them for this toolchain.
func listPackages() ([]pkg, error) {
	out, err := goCmd("", "list", "-f", "{{.ImportPath}}\t{{.Dir}}\t{{.Name}}\t{{join .GoFiles \" \"}}", "./...")
	if err != nil {
		return nil, err
	}
	var pkgs []pkg
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		if len(f) != 4 {
			return nil, fmt.Errorf("go list: unexpected line %q", line)
		}
		pkgs = append(pkgs, pkg{ImportPath: f[0], Dir: f[1], Name: f[2], GoFiles: strings.Fields(f[3])})
	}
	return pkgs, nil
}

// linkedSymbols builds every binary into a temporary directory and
// returns the union of their text symbols, with generic instantiation
// suffixes ("[...]") removed.
func linkedSymbols(pkgs []pkg) (map[string]bool, int, error) {
	tmp, err := os.MkdirTemp("", "unreached")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(tmp)

	args := []string{"build", "-gcflags=all=-l", "-o", tmp + string(filepath.Separator)}
	for _, p := range pkgs {
		if p.Name == "main" {
			args = append(args, p.ImportPath)
		}
	}
	if _, err := goCmd("", args...); err != nil {
		return nil, 0, err
	}
	if _, err := goCmd(benchModule, "build", "-gcflags=all=-l", "-o", filepath.Join(tmp, benchModule), "."); err != nil {
		return nil, 0, err
	}

	bins, err := os.ReadDir(tmp)
	if err != nil {
		return nil, 0, err
	}
	linked := map[string]bool{}
	for _, b := range bins {
		out, err := goCmd("", "tool", "nm", filepath.Join(tmp, b.Name()))
		if err != nil {
			return nil, 0, err
		}
		for _, line := range strings.Split(string(out), "\n") {
			f := strings.Fields(line)
			if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
				continue
			}
			linked[stripInstantiation(strings.Join(f[2:], " "))] = true
		}
	}
	return linked, len(bins), nil
}

// stripInstantiation removes every bracketed type-argument list, so
// "p.(*List[...]).Push" and "p.Map[go.shape.int]" name their generic
// declarations.
func stripInstantiation(sym string) string {
	if !strings.Contains(sym, "[") {
		return sym
	}
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

type decl struct {
	sym string
	pos string
}

// declarations parses every non-test file of every non-main package and
// names each function and method the way the linker does: pkg.F,
// pkg.T.M or pkg.(*T).M.
func declarations(pkgs []pkg) ([]decl, error) {
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var decls []decl
	for _, p := range pkgs {
		if p.Name == "main" {
			continue
		}
		for _, name := range p.GoFiles {
			path := filepath.Join(p.Dir, name)
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
					continue
				}
				pos := fset.Position(fn.Pos())
				if rel, err := filepath.Rel(wd, pos.Filename); err == nil {
					pos.Filename = rel
				}
				decls = append(decls, decl{
					sym: p.ImportPath + "." + funcName(fn),
					pos: fmt.Sprintf("%s:%d", pos.Filename, pos.Line),
				})
			}
		}
	}
	return decls, nil
}

func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	ptr := false
	if s, ok := t.(*ast.StarExpr); ok {
		ptr, t = true, s.X
	}
	switch g := t.(type) {
	case *ast.IndexExpr:
		t = g.X
	case *ast.IndexListExpr:
		t = g.X
	}
	recv := t.(*ast.Ident).Name
	if ptr {
		return "(*" + recv + ")." + fn.Name.Name
	}
	return recv + "." + fn.Name.Name
}

// readAllowlist returns each allowlisted symbol with its line number. A
// line is "symbol reason..."; blank lines and lines starting with '#'
// are skipped, and an entry without a reason is an error.
func readAllowlist(path string) (map[string]int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	allow := map[string]int{}
	for i, line := range strings.Split(string(data), "\n") {
		n := i + 1
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: entry %s gives no reason", path, n, sym)
		}
		if _, dup := allow[sym]; dup {
			return nil, fmt.Errorf("%s:%d: duplicate entry %s", path, n, sym)
		}
		allow[sym] = n
	}
	return allow, nil
}

func goCmd(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return out, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "unreached: FAIL: "+format+"\n", args...)
	os.Exit(1)
}
