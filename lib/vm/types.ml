type prim = I1 | I2 | I4 | I8 | R4 | R8 | Bool | Char
type class_id = int
type elem = Eprim of prim | Eref of class_id
type field_type = Prim of prim | Ref of class_id

let prim_size = function
  | I1 | Bool -> 1
  | I2 | Char -> 2
  | I4 | R4 -> 4
  | I8 | R8 -> 8

let ref_size = 4

let elem_size = function Eprim p -> prim_size p | Eref _ -> ref_size
let field_size = function Prim p -> prim_size p | Ref _ -> ref_size

let prim_name = function
  | I1 -> "int8"
  | I2 -> "int16"
  | I4 -> "int32"
  | I8 -> "int64"
  | R4 -> "float32"
  | R8 -> "float64"
  | Bool -> "bool"
  | Char -> "char"

let elem_is_ref = function Eref _ -> true | Eprim _ -> false
