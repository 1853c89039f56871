module videocdn/bench

go 1.22

require videocdn v0.0.0

replace videocdn => ../
