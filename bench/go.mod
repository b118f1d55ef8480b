module deltanet/bench

go 1.24

require deltanet v0.0.0

replace deltanet => ../
