module tlsfof/bench

go 1.24

godebug rsa1024min=0

require tlsfof v0.0.0

replace tlsfof => ../
