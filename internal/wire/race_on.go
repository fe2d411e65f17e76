//go:build race

package wire

// poisonReleased makes a released read buffer poison itself (putReadBuf),
// so the race-enabled test runs catch a view kept past its request.
const poisonReleased = true
