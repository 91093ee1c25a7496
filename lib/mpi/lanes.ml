(* The predefined operators' lane loops. Each arm is a plain [for] loop
   whose lane values stay unboxed: the unsafe get/set primitives compile
   to single loads and stores, the byte swap sits behind a branch that
   is the same for every lane, and the bounds are checked once up front,
   so a 64 KiB sum allocates nothing. *)

type op = Add_i64 | Mul_i64 | Min_i64 | Max_i64 | Xor_i64 | Add_f64 | Add_i32

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external swap64 : int64 -> int64 = "%bswap_int64"
external swap32 : int32 -> int32 = "%bswap_int32"

let[@inline] get64 b i =
  if Sys.big_endian then swap64 (get64u b i) else get64u b i

let[@inline] set64 b i x = set64u b i (if Sys.big_endian then swap64 x else x)

let[@inline] get32 b i =
  if Sys.big_endian then swap32 (get32u b i) else get32u b i

let[@inline] set32 b i x = set32u b i (if Sys.big_endian then swap32 x else x)

let width = function Add_i32 -> 4 | _ -> 8

let combine op ~dst ~dst_off ~src ~len =
  let w = width op in
  let n = len / w in
  if
    len < 0 || dst_off < 0
    || dst_off > Bytes.length dst - (n * w)
    || n * w > Bytes.length src
  then invalid_arg "Lanes.combine: lanes out of bounds";
  match op with
  | Add_i64 ->
      for i = 0 to n - 1 do
        let d = dst_off + (8 * i) in
        set64 dst d (Int64.add (get64 dst d) (get64 src (8 * i)))
      done
  | Mul_i64 ->
      for i = 0 to n - 1 do
        let d = dst_off + (8 * i) in
        set64 dst d (Int64.mul (get64 dst d) (get64 src (8 * i)))
      done
  | Min_i64 ->
      for i = 0 to n - 1 do
        let d = dst_off + (8 * i) in
        let a = get64 dst d and b = get64 src (8 * i) in
        set64 dst d (if a <= b then a else b)
      done
  | Max_i64 ->
      for i = 0 to n - 1 do
        let d = dst_off + (8 * i) in
        let a = get64 dst d and b = get64 src (8 * i) in
        set64 dst d (if a >= b then a else b)
      done
  | Xor_i64 ->
      for i = 0 to n - 1 do
        let d = dst_off + (8 * i) in
        set64 dst d (Int64.logxor (get64 dst d) (get64 src (8 * i)))
      done
  | Add_f64 ->
      for i = 0 to n - 1 do
        let d = dst_off + (8 * i) in
        let a = Int64.float_of_bits (get64 dst d) in
        let b = Int64.float_of_bits (get64 src (8 * i)) in
        set64 dst d (Int64.bits_of_float (a +. b))
      done
  | Add_i32 ->
      for i = 0 to n - 1 do
        let d = dst_off + (4 * i) in
        set32 dst d (Int32.add (get32 dst d) (get32 src (4 * i)))
      done
