package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const stableSrc = `int main() { printf("ok\n"); return 0; }`

// unstableSrc prints an uninitialized local: the implementations
// disagree on every input.
const unstableSrc = `int main() { int x; printf("%d\n", x); return 0; }`

func writeProg(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.mc")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRealMainUsageExit: command-line misuse exits 2 with a message on
// stderr and nothing on stdout, before any program is built.
func TestRealMainUsageExit(t *testing.T) {
	prog := writeProg(t, stableSrc)
	cases := []struct {
		name   string
		args   []string
		stderr string // substring the error message must carry
	}{
		{"no-program", nil, "usage: compdiff"},
		{"unknown-impls", []string{"-impls", "three", prog}, `unknown -impls "three"`},
		{"bad-hex", []string{"-hex", "4g", prog}, "bad -hex"},
		{"odd-hex", []string{"-hex", "4c4", prog}, "bad -hex"},
		{"unknown-flag", []string{"-jobs", "2", prog}, "-jobs"},
		{"usage-before-missing-file", []string{"-impls", "three", "no-such.mc"}, "-impls"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := realMain(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("realMain(%q) = %d, want 2 (stderr: %s)", tc.args, code, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Fatalf("realMain(%q) wrote to stdout: %q", tc.args, stdout.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Fatalf("realMain(%q) stderr = %q, want substring %q", tc.args, stderr.String(), tc.stderr)
			}
		})
	}
}

// TestRealMainExitStatus: stable inputs exit 0, a divergence or a
// runtime failure exits 1.
func TestRealMainExitStatus(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		code   int
		stdout string
	}{
		{"stable", []string{writeProg(t, stableSrc)}, 0, "input 0 (0 bytes): stable"},
		{"stable-pair-hex", []string{"-impls", "pair", "-hex", "4c4e01", writeProg(t, stableSrc)}, 0,
			"input 0 (3 bytes): stable"},
		{"diverged", []string{writeProg(t, unstableSrc)}, 1, "1 of 1 inputs diverged"},
		{"missing-program", []string{filepath.Join(t.TempDir(), "missing.mc")}, 1, ""},
		{"does-not-parse", []string{writeProg(t, "int main( {")}, 1, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := realMain(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("realMain(%q) = %d, want %d (stderr: %s)", tc.args, code, tc.code, stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.stdout) {
				t.Fatalf("realMain(%q) stdout = %q, want substring %q", tc.args, stdout.String(), tc.stdout)
			}
			if tc.code == 1 && tc.stdout == "" && stderr.Len() == 0 {
				t.Fatalf("realMain(%q) failed without a message", tc.args)
			}
		})
	}
}
