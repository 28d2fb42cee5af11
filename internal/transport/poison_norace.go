//go:build !race

package transport

const poisonRecycled = false
