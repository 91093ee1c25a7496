(** Textual assembler for MIL — the portable assembly format of this VM.

    Example program:

    {v
    .class transportable Node {
      .field transportable int32[] data
      .field transportable Node next
      .field int32 tag
    }

    .method int32 sum(Node head) {
      .locals (int32 acc, Node cur)
      ldarg head
      stloc cur
    loop:
      ldloc cur
      ldnull
      ceq
      brtrue done
      ldloc cur
      ldfld Node::tag
      ldloc acc
      add
      stloc acc
      ldloc cur
      ldfld Node::next
      stloc cur
      br loop
    done:
      ldloc acc
      ret
    }
    v}

    Types: [int8 int16 int32 int64 float32 float64 bool char], class names,
    and array suffixes [T\[\]] (1-D) and [T\[,\]]/[T\[,,\]] (multidim).
    Comments run from [//] to end of line. Classes may reference each other
    in any order. Locals and arguments can be addressed by name or index.
    The entry point is the method named [main] unless overridden. *)

exception Parse_error of string

val assemble :
  Classes.t -> ?entry:string -> string -> Il.program
(** Parse and resolve a program, registering its classes into the given
    registry. Raises {!Parse_error} with a line-numbered diagnostic. *)
