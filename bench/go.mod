module qap/bench

go 1.22

require qap v0.0.0

replace qap => ../
