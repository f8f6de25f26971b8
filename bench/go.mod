module tcpls/bench

go 1.22

require tcpls v0.0.0

replace tcpls => ../
