package live

// FramesMade is how many frame buffers frameBuf has made because the
// stock had none to fit, for the external tests.
func FramesMade() int {
	frameStock.mu.Lock()
	defer frameStock.mu.Unlock()
	return frameStock.made
}

// RaceEnabled reports a -race build, whose allocation figures mean
// nothing.
const RaceEnabled = raceEnabled
