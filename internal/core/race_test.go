//go:build race

package core

func init() { identitySeeds = 4 }
