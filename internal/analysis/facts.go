package analysis

import "go/types"

// Facts is the session-wide store of function summaries ("facts" in the
// x/tools sense, minus the serialization: this module analyzes itself from
// source in one process, so facts are in-memory flags keyed by the
// canonical types.Object of the function, field or variable they describe).
//
// Because the loader caches type-checked packages, an object imported by
// package B is *identical* (pointer-equal) to the object defined in package
// A — exporting a fact while analyzing A and reading it at a call site in
// B needs no linking step. Sessions analyze packages dependency-first,
// so by the time an analyzer sees a call site, every same-session fact of
// the callee's package has been computed; only intra-package recursion
// needs a local fixed point.
//
// A fact is a flag: it holds for (object, name) once exported, where name
// is conventionally "<analyzer>.<property>", keeping analyzers' namespaces
// disjoint.
type Facts struct {
	m map[factKey]struct{}
}

type factKey struct {
	obj  types.Object
	name string
}

// NewFacts returns an empty store.
func NewFacts() *Facts { return &Facts{m: make(map[factKey]struct{})} }

// Export records that the named fact holds for obj (analyzers only ever add
// facts during their in-package fixed points).
func (f *Facts) Export(obj types.Object, name string) {
	if obj == nil {
		return
	}
	f.m[factKey{obj, name}] = struct{}{}
}

// Has reports whether the named fact was exported for obj.
func (f *Facts) Has(obj types.Object, name string) bool {
	_, ok := f.m[factKey{obj, name}]
	return ok
}
