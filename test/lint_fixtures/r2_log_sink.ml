(* R2 fixture: the Obs.Log sink may print; nothing else may, neither
   beside it in the same file nor in a nested module that happens to be
   called Log. Linted as lib/obs/obs.ml: exactly two findings. *)

module Log = struct
  let err msg = Printf.eprintf "rsim: [error] %s\n%!" msg

  module Inner = struct
    let warn msg = prerr_endline msg
  end
end

let leak msg = Printf.eprintf "%s\n" msg

module Other = struct
  module Log = struct
    let info msg = print_endline msg
  end
end
