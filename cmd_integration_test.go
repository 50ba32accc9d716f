package cdb_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCommandLineTools exercises every binary end to end through the Go
// toolchain. Skipped with -short.
func TestCommandLineTools(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration tests skipped in -short mode")
	}
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "demo.cdb")
	prog := `
rel S(x, y) := { x >= 0, y >= 0, x + y <= 1 } | { 2 <= x <= 3, 0 <= y <= 1 };
query Q(x)  := exists y. S(x, y);
query W(x, y) := S(x, y);
`
	if err := os.WriteFile(dbPath, []byte(prog), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(args ...string) string {
		t.Helper()
		cmd := exec.Command("go", append([]string{"run"}, args...)...)
		cmd.Dir = "."
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("go run %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	t.Run("cdbsample", func(t *testing.T) {
		out := run("./cmd/cdbsample", "-file", dbPath, "-rel", "S", "-n", "5", "-seed", "1")
		lines := strings.Split(strings.TrimSpace(out), "\n")
		if len(lines) != 5 {
			t.Fatalf("want 5 sample lines, got %d:\n%s", len(lines), out)
		}
		for _, l := range lines {
			if len(strings.Fields(l)) != 2 {
				t.Errorf("sample line %q is not 2-D", l)
			}
		}
	})

	t.Run("cdbvol exact", func(t *testing.T) {
		out := run("./cmd/cdbvol", "-file", dbPath, "-rel", "S", "-exact")
		if !strings.Contains(out, "1.5") {
			t.Errorf("exact volume output %q should contain 1.5", out)
		}
	})

	t.Run("cdbvol estimate", func(t *testing.T) {
		out := run("./cmd/cdbvol", "-file", dbPath, "-rel", "S", "-seed", "2")
		if !strings.Contains(out, "volume(S)") {
			t.Errorf("estimate output %q", out)
		}
	})

	t.Run("cdbquery plan and symbolic", func(t *testing.T) {
		out := run("./cmd/cdbquery", "-file", dbPath, "-query", "Q", "-mode", "plan")
		if !strings.Contains(out, "union combinator") {
			t.Errorf("plan output %q", out)
		}
		out = run("./cmd/cdbquery", "-file", dbPath, "-query", "Q", "-mode", "symbolic")
		if !strings.Contains(out, "Q(x)") {
			t.Errorf("symbolic output %q", out)
		}
	})

	t.Run("cdbquery volume", func(t *testing.T) {
		out := run("./cmd/cdbquery", "-file", dbPath, "-query", "Q", "-mode", "volume")
		if !strings.Contains(out, "volume(Q) ≈") {
			t.Errorf("volume output %q", out)
		}
	})

	t.Run("cdbquery reconstruct", func(t *testing.T) {
		out := run("./cmd/cdbquery", "-file", dbPath, "-query", "Q", "-mode", "reconstruct", "-n", "100")
		if !strings.Contains(out, "reconstruction of Q:") || !strings.Contains(out, "hull 0:") {
			t.Errorf("reconstruct output %q, want at least one hull", out)
		}
	})

	t.Run("cdbvol query", func(t *testing.T) {
		out := run("./cmd/cdbvol", "-file", dbPath, "-query", "Q")
		if !strings.Contains(out, "sampling plan") {
			t.Errorf("query volume output %q", out)
		}
	})

	t.Run("cdbquery explain", func(t *testing.T) {
		out := run("./cmd/cdbquery", "-file", dbPath, "-query", "Q", "-explain")
		for _, want := range []string{"canonical key: cplan:", "cache: miss", "disjunct 0"} {
			if !strings.Contains(out, want) {
				t.Errorf("explain output missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("cdbplot", func(t *testing.T) {
		svgPath := filepath.Join(dir, "out.svg")
		run("./cmd/cdbplot", "-file", dbPath, "-rel", "S", "-samples", "30", "-hull", "-o", svgPath)
		data, err := os.ReadFile(svgPath)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), "<svg") || !strings.Contains(string(data), "<circle") {
			t.Error("SVG output missing expected elements")
		}
	})

	t.Run("cdbbench single", func(t *testing.T) {
		out := run("./cmd/cdbbench", "-run", "E3", "-quick")
		if !strings.Contains(out, "E3") || !strings.Contains(out, "within 1.35x") {
			t.Errorf("bench output %q", out)
		}
	})

	t.Run("cdbmotion fleet slice alibi", func(t *testing.T) {
		fleetPath := filepath.Join(dir, "fleet.cdb")
		run("./cmd/cdbmotion", "-mode", "fleet", "-n", "2", "-steps", "2", "-seed", "5", "-o", fleetPath)
		data, err := os.ReadFile(fleetPath)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), "rel obj0(x, y, t)") {
			t.Fatalf("fleet program missing obj0:\n%s", data)
		}

		out := run("./cmd/cdbmotion", "-mode", "slice", "-file", fleetPath, "-rel", "obj0",
			"-t0", "12.5", "-samples", "4", "-seed", "1")
		lines := strings.Split(strings.TrimSpace(out), "\n")
		if len(lines) != 4 {
			t.Fatalf("want 4 slice samples, got %d:\n%s", len(lines), out)
		}
		for _, l := range lines {
			if len(strings.Fields(l)) != 2 {
				t.Errorf("slice sample %q is not a 2-D position", l)
			}
		}

		out = run("./cmd/cdbmotion", "-mode", "alibi", "-file", fleetPath, "-a", "obj0", "-b", "obj1", "-seed", "3")
		if !strings.Contains(out, "cross-check: consistent=true") {
			t.Errorf("alibi verdicts disagree:\n%s", out)
		}

		// -trace prints the span tree to stderr (CombinedOutput folds it
		// in): the root span plus the hand-attached stage spans.
		out = run("./cmd/cdbmotion", "-mode", "alibi", "-file", fleetPath,
			"-a", "obj0", "-b", "obj1", "-seed", "3", "-trace")
		for _, want := range []string{"cdbmotion", "trace=", "alibi.report"} {
			if !strings.Contains(out, want) {
				t.Errorf("traced alibi output missing %q:\n%s", want, out)
			}
		}
		out = run("./cmd/cdbmotion", "-mode", "slice", "-file", fleetPath, "-rel", "obj0",
			"-t0", "12.5", "-samples", "2", "-seed", "1", "-trace")
		for _, want := range []string{"slice.prepare", "slice.sample"} {
			if !strings.Contains(out, want) {
				t.Errorf("traced slice output missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("cdbsql", func(t *testing.T) {
		out := run("./cmd/cdbsql", "-file", dbPath, "-e", "SELECT * FROM S WHERE x + y <= 1 SAMPLE 5 SEED 1")
		lines := strings.Split(strings.TrimSpace(out), "\n")
		if len(lines) != 5 {
			t.Fatalf("want 5 sample lines, got %d:\n%s", len(lines), out)
		}
		for _, l := range lines {
			if len(strings.Fields(l)) != 2 {
				t.Errorf("sample line %q is not 2-D", l)
			}
		}

		out = run("./cmd/cdbsql", "-file", dbPath, "-e", "SELECT VOLUME(*) FROM S")
		if !strings.Contains(out, "volume ≈") {
			t.Errorf("volume output %q", out)
		}

		out = run("./cmd/cdbsql", "-file", dbPath, "-explain", "-e", "SELECT * FROM S")
		for _, want := range []string{"canonical key: cplan:", "disjunct 0"} {
			if !strings.Contains(out, want) {
				t.Errorf("explain output missing %q:\n%s", want, out)
			}
		}

		// Stdin script: two ';'-separated statements, one symbolic
		// relation and one explain.
		cmd := exec.Command("go", "run", "./cmd/cdbsql", "-file", dbPath)
		cmd.Dir = "."
		cmd.Stdin = strings.NewReader("SELECT x AS u FROM S WHERE y <= 0.5; EXPLAIN SELECT * FROM S")
		piped, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("cdbsql stdin script: %v\n%s", err, piped)
		}
		for _, want := range []string{"u", "rel", "canonical key: cplan:"} {
			if !strings.Contains(string(piped), want) {
				t.Errorf("stdin script output missing %q:\n%s", want, piped)
			}
		}
	})

	t.Run("cdbquery audit", func(t *testing.T) {
		// W is quantifier-free, so it has a cacheable prepared sampler
		// inside the exact-oracle fragment (2-D, 2 disjuncts).
		out := run("./cmd/cdbquery", "-file", dbPath, "-query", "W", "-audit")
		for _, want := range []string{"audit pass", "check=cells", "check=shares", `"audit_outcome": "pass"`} {
			if !strings.Contains(out, want) {
				t.Errorf("audit output missing %q:\n%s", want, out)
			}
		}
	})
}
