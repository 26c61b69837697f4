// The benchmark is a module of its own so that its build file lives in the
// benchmark's directory; the path prefix eac/ is what lets it import the
// simulator's internal packages through the replace below.
module eac/bench

go 1.22

require eac v0.0.0

replace eac => ../
