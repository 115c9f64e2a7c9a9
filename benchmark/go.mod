module lineup/benchmark

go 1.22

require lineup v0.0.0

replace lineup => ../
