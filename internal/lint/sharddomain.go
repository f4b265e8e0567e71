package lint

import (
	"go/ast"
	"go/types"
)

// ShardDomain confines shard triple reads to the failure domain. The
// PR 10 scatter-gather design funnels every shard snapshot read
// through domain.run — the per-attempt timeout / backoff /
// circuit-breaker ladder — by keeping the only call sites of the
// store's triple-data surface (HasIDs, ForEachMatchIDs, PostingList)
// in internal/shard/ops.go, whose ops execute exclusively inside
// domain.attempt. A snapshot read anywhere else in the package would be a
// shard call that bypasses its failure domain: no attempt budget, no
// breaker accounting, no partial-answer bookkeeping. Coordinator-local
// planning reads (Len, Lookup, TermRanks, ...) are exempt — they hit
// the pinned source image, not a shard.
var ShardDomain = &Analyzer{
	Name: "sharddomain",
	Doc:  "internal/shard may read store triple data (HasIDs/ForEachMatchIDs/PostingList) only in ops.go — every other site must route through the failure domain",
	Run:  runShardDomain,
}

// shardDomainScope is where the invariant applies.
var shardDomainScope = []string{"internal/shard"}

// tripleReadFuncs is the store's triple-data surface; dictionary and
// statistics reads are coordinator-local and stay unrestricted.
var tripleReadFuncs = map[string]bool{
	"HasIDs": true, "ForEachMatchIDs": true, "PostingList": true,
}

// shardOpsFile is the one file allowed to touch the surface.
const shardOpsFile = "ops.go"

func runShardDomain(p *Pass) {
	if !pathMatches(p.Pkg.Path, shardDomainScope...) {
		return
	}
	for _, f := range p.Pkg.Files {
		if isTestFile(p.Pkg, f.Pos()) || fileBase(p.Pkg, f.Pos()) == shardOpsFile {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := p.Pkg.Info.Uses[sel.Sel]
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil || !tripleReadFuncs[fn.Name()] {
				return true
			}
			if !pathMatches(fn.Pkg().Path(), "internal/store") {
				return true // View's own methods share the names; they gather, not read
			}
			p.Reportf(sel.Sel.Pos(),
				"store snapshot %s outside %s: shard triple reads must go through the failure domain (domain.run)",
				fn.Name(), shardOpsFile)
			return true
		})
	}
}
