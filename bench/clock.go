package main

import "time"

// now is the harness's only wall-clock read; every timing in bench/
// goes through it or since.
func now() time.Time {
	return time.Now() //qap:allow walltime -- benchmark timing, never feeds outputs
}

// since reports the seconds elapsed after t.
func since(t time.Time) float64 { return now().Sub(t).Seconds() }
