// The benchmark is a module of its own so that it builds from its own
// build file; it reaches the code under test through the replace below.
module clientmap/cmd/bench

go 1.22

require clientmap v0.0.0

replace clientmap => ../..
