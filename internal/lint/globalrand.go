package lint

import (
	"go/ast"
	"go/token"
)

// globalRandFuncs are the math/rand (and math/rand/v2) package-level
// functions that draw from the global, unseedable-per-run source.
var globalRandFuncs = map[string]bool{
	"Int":         true,
	"Intn":        true,
	"Int31":       true,
	"Int31n":      true,
	"Int63":       true,
	"Int63n":      true,
	"Int64":       true,
	"Int64N":      true,
	"IntN":        true,
	"Uint32":      true,
	"Uint64":      true,
	"Uint64N":     true,
	"UintN":       true,
	"N":           true,
	"Float32":     true,
	"Float64":     true,
	"ExpFloat64":  true,
	"NormFloat64": true,
	"Perm":        true,
	"Shuffle":     true,
	"Seed":        true,
	"Read":        true,
}

// randConstructors build math/rand generators.
var randConstructors = map[string]bool{
	"New":       true,
	"NewSource": true,
}

// GlobalrandAnalyzer forbids the package-level math/rand functions
// everywhere (outside tests). All randomness must flow through an
// injected seeded generator — in the simulator that is sim.Sim.Rand()
// — or experiment results stop being a function of the seed. Under
// internal/ it also forbids building math/rand generators: the engine
// seeds sim.NewRand, math/rand's stream without its Source interface
// and its serial seeding. cmd/ clients such as protean-load may keep
// using math/rand.
func GlobalrandAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "globalrand",
		Doc:  "forbid package-level math/rand functions, and math/rand generators under internal/; inject a seeded generator (sim.NewRand)",
		Run: func(pkg *Package, report func(pos token.Pos, format string, args ...any)) {
			for _, f := range pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					for _, path := range []string{"math/rand", "math/rand/v2"} {
						name, ok := pkgFunc(pkg.Info, sel, path)
						if !ok {
							continue
						}
						switch {
						case globalRandFuncs[name]:
							report(sel.Pos(), "rand.%s draws from the global math/rand source; inject a seeded generator (sim.Sim.Rand) instead", name)
						case pkg.Internal && randConstructors[name]:
							report(sel.Pos(), "rand.%s builds a math/rand generator in the engine; seed a sim.NewRand (or derive a sim.Stream.Child) instead", name)
						}
					}
					return true
				})
			}
		},
	}
}
