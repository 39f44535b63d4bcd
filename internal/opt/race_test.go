//go:build race

package opt_test

func init() { reuseSeeds = 4 }
