module mrmicro/bench

go 1.24

require mrmicro v0.0.0

replace mrmicro => ../
