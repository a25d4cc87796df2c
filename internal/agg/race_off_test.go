//go:build !race

package agg_test

const raceEnabled = false
