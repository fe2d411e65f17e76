//go:build !race

package wire

const poisonReleased = false
