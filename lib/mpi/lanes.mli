(** The element-wise reduction kernel behind the predefined operators.

    One loop per operator over little-endian lanes of a byte buffer: 8-byte
    lanes for the [int64] and [float] operators, 4-byte lanes for
    {!Add_i32}. The accumulator lives in registers (no boxed [int64] or
    [float] per lane, no closure call), and the byte order is swapped on
    big-endian hosts so results are the same everywhere.
    {!Collectives.sum_i64}/[sum_i32]/[sum_f64] and {!Rma}'s arithmetic
    accumulate operators all run through {!combine}. Applying an operator
    charges no virtual time (DESIGN.md §9). *)

type op =
  | Add_i64  (** wrapping [int64] addition *)
  | Mul_i64  (** wrapping [int64] multiplication *)
  | Min_i64
  | Max_i64
  | Xor_i64
  | Add_f64  (** IEEE double addition *)
  | Add_i32  (** wrapping [int32] addition on 4-byte lanes *)

val combine :
  op -> dst:Bytes.t -> dst_off:int -> src:Bytes.t -> len:int -> unit
(** [combine op ~dst ~dst_off ~src ~len] folds each whole lane of
    [src[0, len)] into the lane of [dst] at the same distance from
    [dst_off]: [dst := op dst src]. A trailing partial lane ([len] not a
    multiple of the lane size) is left untouched. Raises [Invalid_argument],
    before writing anything, when [len] or [dst_off] is negative or the
    lanes do not fit in [dst] or [src]. *)
