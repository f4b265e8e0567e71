package lint

import (
	"go/ast"
	"go/types"
)

// ClockInject forbids reading the process clock in packages whose
// behaviour must be deterministic under test. WAL commit/recovery,
// store generations and the chaos injector's seeded fault schedule
// read no clock, so a failing run replays from its seed. The answer
// cache (and the plan-shape cache, which is one) reads none either —
// an entry lives until its generation goes stale or capacity evicts
// it — and stays in scope so that it cannot start. The shard failure
// domains (attempt timeouts, backoff, breaker cooldowns)
// take their clock and timers injected (shard.Config.Now / AfterFunc),
// so their transition tests run on a fake clock and hand-fired timers
// instead of sleeps.
var ClockInject = &Analyzer{
	Name: "clockinject",
	Doc:  "no time.Now/Since/Until in internal/{qacache,wal,store,chaos,shard} — use the injected clock",
	Run:  runClockInject,
}

// clockInjectScope is where the invariant applies.
var clockInjectScope = []string{
	"internal/qacache", "internal/wal", "internal/store",
	"internal/chaos", "internal/shard",
}

// wallClockFuncs are the time functions that read the process clock.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func runClockInject(p *Pass) {
	if !pathMatches(p.Pkg.Path, clockInjectScope...) {
		return
	}
	for _, f := range p.Pkg.Files {
		if isTestFile(p.Pkg, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := p.Pkg.Info.Uses[sel.Sel]
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !wallClockFuncs[fn.Name()] {
				return true
			}
			p.Reportf(sel.Sel.Pos(),
				"time.%s in a deterministic package: take the clock as an injected func() time.Time (cf. shard.Config.Now)",
				fn.Name())
			return true
		})
	}
}
