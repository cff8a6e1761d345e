// The benchmark is its own module so the repository's build and tier-1
// tests never see it; the replace points at the repository root, and the
// module path sits under noceval/ so internal/ packages stay importable.
module noceval/bench

go 1.22

require noceval v0.0.0

replace noceval => ../
