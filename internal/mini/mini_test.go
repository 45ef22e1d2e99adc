package mini

import "testing"

func run(t *testing.T, src string, cfg Config) (int64, *VM) {
	t.Helper()
	prog, err := Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	vm := NewVM(prog, cfg)
	ret, err := vm.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return ret, vm
}

func TestLexerBasics(t *testing.T) {
	l := NewLexer("fn x1 123 0x1F <= << // comment\n }")
	var kinds []Kind
	for {
		tok, err := l.Next()
		if err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, tok.Kind)
		if tok.Kind == EOF {
			break
		}
	}
	want := []Kind{FN, IDENT, NUMBER, NUMBER, LE, SHL, RBRACE, EOF}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("token %d = %v, want %v", i, kinds[i], want[i])
		}
	}
}

func TestLexerNumbers(t *testing.T) {
	l := NewLexer("42 0x2A 0")
	for _, want := range []int64{42, 42, 0} {
		tok, err := l.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tok.Kind != NUMBER || tok.Num != want {
			t.Fatalf("token = %+v, want number %d", tok, want)
		}
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{"@", "#", "0x"} {
		l := NewLexer(src)
		if _, err := l.Next(); err == nil {
			t.Errorf("lexer accepted %q", src)
		}
	}
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		expr string
		want int64
	}{
		{"1 + 2 * 3", 7},
		{"(1 + 2) * 3", 9},
		{"10 / 3", 3},
		{"10 % 3", 1},
		{"-5 + 2", -3},
		{"1 << 4", 16},
		{"255 >> 4", 15},
		{"12 & 10", 8},
		{"12 | 3", 15},
		{"12 ^ 10", 6},
		{"3 < 4", 1},
		{"4 <= 4", 1},
		{"5 == 5", 1},
		{"5 != 5", 0},
		{"!0", 1},
		{"!7", 0},
		{"1 && 2", 1},
		{"1 && 0", 0},
		{"0 || 3", 1},
		{"0 || 0", 0},
		{"true + true", 2},
		{"false", 0},
		{"1 + 2 == 3 && 4 > 1", 1},
	}
	for _, tc := range cases {
		ret, _ := run(t, "fn main() { return "+tc.expr+"; }", Config{})
		if ret != tc.want {
			t.Errorf("%s = %d, want %d", tc.expr, ret, tc.want)
		}
	}
}

func TestShortCircuit(t *testing.T) {
	// The right operand of && must not run when the left is false: a
	// division by zero there would error.
	src := `
fn boom() { return 1 / 0; }
fn main() {
  if (0 && boom()) { return 1; }
  if (1 || boom()) { return 42; }
  return 0;
}`
	ret, _ := run(t, src, Config{})
	if ret != 42 {
		t.Fatalf("ret = %d", ret)
	}
}

func TestControlFlow(t *testing.T) {
	src := `
fn main() {
  let sum = 0;
  let i = 0;
  while (i < 10) {
    if (i % 2 == 0) {
      sum = sum + i;
    } else {
      if (i == 5) {
        sum = sum + 100;
      }
    }
    i = i + 1;
  }
  return sum;
}`
	ret, _ := run(t, src, Config{})
	if ret != 120 { // 0+2+4+6+8 + 100
		t.Fatalf("ret = %d, want 120", ret)
	}
}

func TestFunctionsAndRecursion(t *testing.T) {
	src := `
fn fib(n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
fn main() { return fib(15); }`
	ret, _ := run(t, src, Config{})
	if ret != 610 {
		t.Fatalf("fib(15) = %d, want 610", ret)
	}
}

func TestArrays(t *testing.T) {
	src := `
fn main() {
  let a = array(10);
  let i = 0;
  while (i < len(a)) {
    a[i] = i * i;
    i = i + 1;
  }
  return a[7] + len(a);
}`
	ret, _ := run(t, src, Config{})
	if ret != 59 {
		t.Fatalf("ret = %d, want 59", ret)
	}
}

func TestPrintOutput(t *testing.T) {
	_, vm := run(t, "fn main() { print(3); print(1 + 1); return 0; }", Config{})
	out := vm.Output()
	if len(out) != 2 || out[0] != 3 || out[1] != 2 {
		t.Fatalf("output = %v", out)
	}
}

func TestRandDeterministic(t *testing.T) {
	src := "fn main() { return rand() % 1000; }"
	a, _ := run(t, src, Config{Seed: 7})
	b, _ := run(t, src, Config{Seed: 7})
	c, _ := run(t, src, Config{Seed: 8})
	if a != b {
		t.Fatal("same seed diverged")
	}
	if a == c {
		t.Log("different seeds coincided (possible but unlikely)")
	}
	if a < 0 {
		t.Fatal("rand returned negative")
	}
}

func TestScoping(t *testing.T) {
	src := `
fn main() {
  let x = 1;
  {
    let x = 2;
    if (x != 2) { return 100; }
  }
  return x;
}`
	ret, _ := run(t, src, Config{})
	if ret != 1 {
		t.Fatalf("ret = %d, want outer x", ret)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := map[string]string{
		"no main":           "fn f() { return 1; }",
		"main with params":  "fn main(x) { return x; }",
		"dup function":      "fn f() { return 1; } fn f() { return 2; } fn main() { return 0; }",
		"undefined var":     "fn main() { return x; }",
		"undefined fn":      "fn main() { return g(); }",
		"redeclare":         "fn main() { let x = 1; let x = 2; return x; }",
		"bad arity":         "fn f(a, b) { return a; } fn main() { return f(1); }",
		"builtin arity":     "fn main() { return len(); }",
		"shadow builtin":    "fn len(a) { return 0; } fn main() { return 0; }",
		"assign to call":    "fn f() { return 1; } fn main() { f() = 2; return 0; }",
		"call non-ident":    "fn main() { return (1)(2); }",
		"missing semicolon": "fn main() { return 1 }",
		"unclosed brace":    "fn main() { return 1;",
		"empty program":     "",
		"stray tokens":      "fn main() { return 0; } xyz",
	}
	for name, src := range cases {
		if _, err := Compile(src); err == nil {
			t.Errorf("%s: compiled without error", name)
		}
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := map[string]string{
		"div by zero":    "fn main() { let z = 0; return 1 / z; }",
		"mod by zero":    "fn main() { let z = 0; return 1 % z; }",
		"oob read":       "fn main() { let a = array(3); return a[3]; }",
		"oob write":      "fn main() { let a = array(3); a[0-1] = 1; return 0; }",
		"bad handle":     "fn main() { let a = 999999; return a[0]; }",
		"len of scalar":  "fn main() { return len(12345678); }",
		"negative alloc": "fn main() { return array(0 - 5); }",
		"infinite loop":  "fn main() { while (1) { } return 0; }",
		"deep recursion": "fn f(n) { return f(n + 1); } fn main() { return f(0); }",
	}
	for name, src := range cases {
		prog, err := Compile(src)
		if err != nil {
			t.Fatalf("%s: compile error: %v", name, err)
		}
		vm := NewVM(prog, Config{MaxSteps: 1_000_000})
		if _, err := vm.Run(); err == nil {
			t.Errorf("%s: ran without error", name)
		}
	}
}

func TestHooksEmitSaneEvents(t *testing.T) {
	src := `
fn main() {
  let a = array(4);
  a[0] = 7;
  let x = a[0];
  return x;
}`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	var blocks, loads, stores int
	var heapLoadSeen bool
	cfg := Config{Hooks: Hooks{
		OnBlock: func(pc uint64) {
			blocks++
			if pc < CodeBase {
				t.Errorf("block PC %x below code base", pc)
			}
		},
		OnLoad: func(addr, value uint64) {
			loads++
			if addr >= HeapBase && value == 7 {
				heapLoadSeen = true
			}
			if addr < StackBase && addr < HeapBase {
				t.Errorf("load address %x outside stack/heap", addr)
			}
		},
		OnStore: func(addr, value uint64) { stores++ },
	}}
	vm := NewVM(prog, cfg)
	ret, err := vm.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ret != 7 {
		t.Fatalf("ret = %d", ret)
	}
	if blocks == 0 || loads == 0 || stores == 0 {
		t.Fatalf("hooks fired blocks=%d loads=%d stores=%d", blocks, loads, stores)
	}
	if !heapLoadSeen {
		t.Error("never saw the heap load of value 7")
	}
}

func TestBlockPCsAlignAndStayInText(t *testing.T) {
	prog, err := LoadProgram("graph")
	if err != nil {
		t.Fatal(err)
	}
	var maxPC uint64
	for _, c := range prog.Chunks {
		end := c.PC(len(c.Code) - 1)
		if end > maxPC {
			maxPC = end
		}
	}
	vm := NewVM(prog, Config{Seed: 1, Hooks: Hooks{OnBlock: func(pc uint64) {
		if pc < CodeBase || pc > maxPC {
			t.Fatalf("block PC %x outside text [%x,%x]", pc, CodeBase, maxPC)
		}
		if (pc-CodeBase)%4 != 0 {
			t.Fatalf("block PC %x not instruction aligned", pc)
		}
	}}})
	if _, err := vm.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAllProgramsRun(t *testing.T) {
	for _, name := range ProgramNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			prog, err := LoadProgram(name)
			if err != nil {
				t.Fatal(err)
			}
			vm := NewVM(prog, Config{Seed: 42})
			ret, err := vm.Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(vm.Output()) == 0 {
				t.Error("program printed nothing")
			}
			if vm.Steps() < 100_000 {
				t.Errorf("program too short for a trace source: %d steps", vm.Steps())
			}
			// Determinism.
			vm2 := NewVM(prog, Config{Seed: 42})
			ret2, err := vm2.Run()
			if err != nil || ret2 != ret {
				t.Fatalf("rerun diverged: %d vs %d (%v)", ret, ret2, err)
			}
		})
	}
	if _, err := LoadProgram("nope"); err == nil {
		t.Error("LoadProgram accepted unknown name")
	}
}

func TestStoreProgramLoadsZeros(t *testing.T) {
	// The vortex stand-in must produce a meaningful share of zero-valued
	// heap loads for the zero-load profile.
	prog, err := LoadProgram("store")
	if err != nil {
		t.Fatal(err)
	}
	var heapLoads, zeroLoads int
	vm := NewVM(prog, Config{Seed: 3, Hooks: Hooks{OnLoad: func(addr, value uint64) {
		if addr >= HeapBase {
			heapLoads++
			if value == 0 {
				zeroLoads++
			}
		}
	}}})
	if _, err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	frac := float64(zeroLoads) / float64(heapLoads)
	if frac < 0.2 {
		t.Errorf("zero-load fraction %.3f too low for the store program", frac)
	}
}
