package workload

import (
	"fmt"
	"strings"
	"time"

	"detmt/internal/ids"
	"detmt/internal/lang"
)

// FamilyConfig parameterises the low-conflict variant of the Fig. 1
// benchmark: the mutex set is split into disjoint *families*, each with
// its own start method, so static lock prediction can prove requests of
// different families independent (package
// earlysched assigns them distinct conflict classes). Two dials shape the
// contention:
//
//   - PGlobal is the conflict rate: the probability that a request calls
//     the cross-family method, whose lock index ranges over the whole
//     array — unclassifiable, hence the conservative global class.
//   - HotSkew is the hot-key skew: the probability that a family request
//     targets family 0 instead of a uniformly drawn family, concentrating
//     load on one scheduler lane.
type FamilyConfig struct {
	Families   int           // number of disjoint lock families (≥1)
	PerFamily  int           // monitors per family (≥1)
	Iterations int           // loop iterations per request
	PNested    float64       // probability of a nested invocation per iteration
	PCompute   float64       // probability of a local computation per iteration
	ComputeDur time.Duration // local computation duration
	PGlobal    float64       // conflict dial: cross-family request probability
	HotSkew    float64       // hot-key dial: extra weight on family 0
}

// DefaultFamilies returns a 4-family split of the paper's Fig. 1 setup
// with no nested invocations (the no-suspension shape whose class-
// parallel execution is provably hash-identical to serial admission).
func DefaultFamilies() FamilyConfig {
	return FamilyConfig{
		Families:   4,
		PerFamily:  25,
		Iterations: 10,
		PCompute:   0.5,
		ComputeDur: 1500 * time.Microsecond,
	}
}

// Mutexes is the total monitor count.
func (cfg FamilyConfig) Mutexes() int { return cfg.Families * cfg.PerFamily }

// FamilyMethod names the start method of one family.
func FamilyMethod(f int) string { return fmt.Sprintf("work%d", f) }

// GlobalMethod is the cross-family start method (the conflict dial).
const GlobalMethod = "workAll"

// FamiliesSource generates the benchmark object: one method per family
// locking only its family's slice of the array, plus the global method
// locking anywhere.
//
// The family index expression is the double-mod idiom
// "((d % P) + P) % P + BASE": the first mod confines the value, the +P/%P
// pair pins the interval analysis to [0,P) even though d itself is
// unbounded, and BASE shifts it into the family's slice — so the
// predicted footprints of different families provably never overlap. The
// global method's plain "d % M" spans the whole array, which is exactly
// what escalates it to the global class.
func FamiliesSource(cfg FamilyConfig) string {
	if cfg.Families < 1 || cfg.PerFamily < 1 || cfg.Iterations < 1 {
		panic("workload: FamilyConfig needs Families, PerFamily, Iterations >= 1")
	}
	p := cfg.PerFamily
	total := cfg.Mutexes()
	us := int64(cfg.ComputeDur / time.Microsecond)

	params := make([]string, cfg.Iterations)
	for i := range params {
		params[i] = fmt.Sprintf("d%d", i)
	}
	plist := strings.Join(params, ", ")

	var b strings.Builder
	b.WriteString("object Families {\n")
	fmt.Fprintf(&b, "    monitor cells[%d];\n\n", total)

	// Every critical section counts into a per-cell counter (map
	// namespace ns, key = the cell index), so each counter is guarded by
	// the one monitor its cell names. One shared field per family would
	// be written under any of the family's cells: two requests of a
	// family in critical sections at once (a PDS round grants them
	// together) would race its read-modify-write and lose an update.
	count := func(ns int, cell string) {
		fmt.Fprintf(&b, "            c = mapget(%d, %s);\n", ns, cell)
		b.WriteString("            if (c == null) {\n")
		b.WriteString("                c = 0;\n")
		b.WriteString("            }\n")
		fmt.Fprintf(&b, "            mapput(%d, %s, c + 1);\n", ns, cell)
	}
	iteration := func(d string, mod int, baseOff int, ns int) {
		fmt.Fprintf(&b, "        if (%s / %d %% 2 == 1) {\n", d, mod)
		fmt.Fprintf(&b, "            nested(%s);\n", d)
		b.WriteString("        }\n")
		fmt.Fprintf(&b, "        if (%s / %d %% 2 == 1) {\n", d, 2*mod)
		fmt.Fprintf(&b, "            compute(%dus);\n", us)
		b.WriteString("        }\n")
		cell := fmt.Sprintf("((%s %% %d) + %d) %% %d", d, mod, mod, mod)
		if baseOff > 0 {
			cell = fmt.Sprintf("%s + %d", cell, baseOff)
		}
		fmt.Fprintf(&b, "        sync (cells[%s]) {\n", cell)
		count(ns, cell)
		b.WriteString("        }\n")
	}

	for f := 0; f < cfg.Families; f++ {
		fmt.Fprintf(&b, "    method %s(%s) {\n", FamilyMethod(f), plist)
		b.WriteString("        var c = 0;\n")
		for i := 0; i < cfg.Iterations; i++ {
			iteration(params[i], p, f*p, f)
		}
		b.WriteString("    }\n\n")
	}

	// The cross-family method: the same per-iteration structure, but the
	// lock index spans the whole array; it counts in namespace Families.
	fmt.Fprintf(&b, "    method %s(%s) {\n", GlobalMethod, plist)
	b.WriteString("        var c = 0;\n")
	for i := 0; i < cfg.Iterations; i++ {
		d := params[i]
		fmt.Fprintf(&b, "        if (%s / %d %% 2 == 1) {\n", d, total)
		fmt.Fprintf(&b, "            nested(%s);\n", d)
		b.WriteString("        }\n")
		fmt.Fprintf(&b, "        if (%s / %d %% 2 == 1) {\n", d, 2*total)
		fmt.Fprintf(&b, "            compute(%dus);\n", us)
		b.WriteString("        }\n")
		cell := fmt.Sprintf("%s %% %d", d, total)
		fmt.Fprintf(&b, "        sync (cells[%s]) {\n", cell)
		count(cfg.Families, cell)
		b.WriteString("        }\n")
	}
	b.WriteString("    }\n")
	b.WriteString("}\n")
	return b.String()
}

// FamilyTotal sums the per-cell counters of an instance running
// FamiliesSource(cfg): the number of critical sections executed.
func FamilyTotal(cfg FamilyConfig, in *lang.Instance) int64 {
	var sum int64
	for ns := 0; ns <= cfg.Families; ns++ {
		for cell := 0; cell < cfg.Mutexes(); cell++ {
			if v, ok := in.MapGet(int64(ns), int64(cell)).(int64); ok {
				sum += v
			}
		}
	}
	return sum
}

// FamilyArgs draws one request: the method (global with probability
// PGlobal, else a family — family 0 with probability HotSkew, else
// uniform) and its per-iteration decision parameters.
func FamilyArgs(cfg FamilyConfig, rng *ids.RNG) (string, []lang.Value) {
	if rng.Bool(cfg.PGlobal) {
		total := cfg.Mutexes()
		args := make([]lang.Value, cfg.Iterations)
		for i := range args {
			d := int64(rng.Intn(total))
			if rng.Bool(cfg.PNested) {
				d += int64(total)
			}
			if rng.Bool(cfg.PCompute) {
				d += int64(2 * total)
			}
			args[i] = d
		}
		return GlobalMethod, args
	}
	f := 0
	if !rng.Bool(cfg.HotSkew) {
		f = rng.Intn(cfg.Families)
	}
	args := make([]lang.Value, cfg.Iterations)
	for i := range args {
		d := int64(rng.Intn(cfg.PerFamily))
		if rng.Bool(cfg.PNested) {
			d += int64(cfg.PerFamily)
		}
		if rng.Bool(cfg.PCompute) {
			d += int64(2 * cfg.PerFamily)
		}
		args[i] = d
	}
	return FamilyMethod(f), args
}
