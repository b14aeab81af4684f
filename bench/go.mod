module stsmatch/bench

go 1.22

require stsmatch v0.0.0

replace stsmatch => ../
