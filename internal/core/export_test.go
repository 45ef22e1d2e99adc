package core

// Test helpers shared with the external core_test package.
var (
	TestConfig    = testConfig
	SkewedPoints  = skewedPoints
	CheckDescents = checkDescents
)

// DenyOdd refuses odd points, so admitted and refused mass interleave.
type DenyOdd = denyOdd
