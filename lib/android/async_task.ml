type phase =
  | Pre_execute
  | In_background
  | Awaiting_post_execute
  | Finished

let phase_name = function
  | Pre_execute -> "onPreExecute"
  | In_background -> "doInBackground"
  | Awaiting_post_execute -> "awaiting onPostExecute"
  | Finished -> "finished"

type t =
  { name : string
  ; phase : phase
  }

let create ~name = { name; phase = Pre_execute }
let name t = t.name
let phase t = t.phase

let advance t =
  match t.phase with
  | Pre_execute -> Ok { t with phase = In_background }
  | In_background -> Ok { t with phase = Awaiting_post_execute }
  | Awaiting_post_execute -> Ok { t with phase = Finished }
  | Finished -> Error "the AsyncTask already finished"

let progress_callback_name t n = Printf.sprintf "%s.onProgressUpdate%d" t.name n
let post_execute_callback_name t = t.name ^ ".onPostExecute"
let background_thread_name t = t.name ^ ".bg"
