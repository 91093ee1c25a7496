type t = {
  source : int;
  tag : int;
  bytes : int;
}

let empty = { source = -1; tag = -1; bytes = 0 }
