package mini

import (
	"strings"
	"testing"
	"testing/quick"

	"rap/internal/stats"
)

// Robustness: the frontend must never panic — random inputs either parse
// or produce an error.

func TestParserNeverPanicsOnRandomBytes(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on input %q: %v", data, r)
			}
		}()
		_, _ = Compile(string(data))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestParserNeverPanicsOnTokenSoup(t *testing.T) {
	// Random sequences of valid tokens: syntactically adventurous but
	// lexically clean, probing the parser rather than the lexer.
	tokens := []string{
		"fn", "let", "if", "else", "while", "return", "true", "false",
		"main", "x", "y", "0", "42", "0xFF",
		"(", ")", "{", "}", "[", "]", ",", ";",
		"=", "+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>",
		"&&", "||", "!", "==", "!=", "<", ">", "<=", ">=",
	}
	rng := stats.NewSplitMix64(1234)
	for trial := 0; trial < 500; trial++ {
		var sb strings.Builder
		n := 5 + rng.Intn(60)
		for i := 0; i < n; i++ {
			sb.WriteString(tokens[rng.Intn(len(tokens))])
			sb.WriteByte(' ')
		}
		src := sb.String()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on token soup %q: %v", src, r)
				}
			}()
			_, _ = Compile(src)
		}()
	}
}

func TestGeneratedProgramsCompileAndRun(t *testing.T) {
	// Structured random programs: straight-line arithmetic over a pool of
	// declared variables. Everything generated here is valid, so it must
	// compile, run, and be deterministic.
	rng := stats.NewSplitMix64(99)
	ops := []string{"+", "-", "*", "&", "|", "^"}
	for trial := 0; trial < 60; trial++ {
		var sb strings.Builder
		sb.WriteString("fn main() {\n")
		vars := 1 + rng.Intn(6)
		for v := 0; v < vars; v++ {
			fmt := func(i int) byte { return byte('a' + i) }
			sb.WriteString("  let ")
			sb.WriteByte(fmt(v))
			sb.WriteString(" = ")
			sb.WriteString(itoa(int64(rng.Intn(1000))))
			sb.WriteString(";\n")
		}
		stmts := 1 + rng.Intn(12)
		for s := 0; s < stmts; s++ {
			v := byte('a' + rng.Intn(vars))
			sb.WriteString("  ")
			sb.WriteByte(v)
			sb.WriteString(" = ")
			sb.WriteByte(byte('a' + rng.Intn(vars)))
			sb.WriteString(" ")
			sb.WriteString(ops[rng.Intn(len(ops))])
			sb.WriteString(" ")
			sb.WriteString(itoa(int64(rng.Intn(100) + 1)))
			sb.WriteString(";\n")
		}
		sb.WriteString("  return a;\n}\n")
		src := sb.String()

		prog, err := Compile(src)
		if err != nil {
			t.Fatalf("generated program rejected: %v\n%s", err, src)
		}
		r1, err1 := NewVM(prog, Config{Seed: 1}).Run()
		r2, err2 := NewVM(prog, Config{Seed: 1}).Run()
		if err1 != nil || err2 != nil || r1 != r2 {
			t.Fatalf("generated program failed or diverged across runs (%v/%v, %d vs %d)\n%s",
				err1, err2, r1, r2, src)
		}
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
